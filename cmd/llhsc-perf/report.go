package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"llhsc/internal/obs"
)

// endToEnd are the metrics a user of the service sees, taken from each
// round.
var endToEnd = []struct {
	name, unit string
	of         func(roundResult) float64
}{
	{"setup_s", "s", func(r roundResult) float64 { return r.SetupS }},
	{"latency_p50_ms", "ms", func(r roundResult) float64 { return r.LatencyP50Ms }},
	{"latency_p90_ms", "ms", func(r roundResult) float64 { return r.LatencyP90Ms }},
	{"throughput_rps", "req/s", func(r roundResult) float64 { return r.ThroughputRPS }},
	{"cpu_ms_per_req", "ms", func(r roundResult) float64 { return r.CPUMsPerReq }},
	{"alloc_kb_per_req", "KiB", func(r roundResult) float64 { return r.AllocKBPerReq }},
	{"rss_mb", "MiB", func(r roundResult) float64 { return r.RSSMB }},
}

// failedRatio is the eighth end-to-end metric, in the -json report. The
// one-workload result carries it as its failed and attempted counts
// instead: BENCHMARK.json admits only metrics that never read 0.
const failedRatio = "failed_ratio"

// childRound is the body of a re-executed round process: it prints the
// round's result as one JSON line.
func childRound(name string, seed int64, measure, warm time.Duration, stdout io.Writer) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	res, err := runRound(w, seed, measure, warm, processStart)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawnRound runs one round in a fresh process of this command.
func spawnRound(w workload, seed int64, measure, warm time.Duration) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	// Set-up, the first cold request and the last request past the
	// deadline come on top of warm-up and measurement.
	ctx, cancel := context.WithTimeout(context.Background(), warm+measure+time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-round", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(measure.Seconds(), 'g', -1, 64),
		"-warmup", warm.String())
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return roundResult{}, fmt.Errorf("%s round: %w", w.name, err)
	}
	var res roundResult
	if err := json.Unmarshal(out, &res); err != nil {
		return roundResult{}, fmt.Errorf("%s round: reading result: %w", w.name, err)
	}
	return res, nil
}

// childEnv marks a re-executed round process, so a test binary can route
// it to run instead of the tests.
const childEnv = "LLHSC_PERF_ROUND"

// stat summarises one metric over rounds.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

// median of a sample; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func newStat(unit string, xs []float64) stat {
	s := stat{Unit: unit, Median: median(xs), Min: xs[0], Max: xs[0], Rounds: xs}
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	return s
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's part of the full report.
type workloadReport struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples counts the timed requests the latency percentiles of all
	// rounds rest on.
	Samples  int              `json:"samples"`
	EndToEnd map[string]stat  `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer"`
}

// report is the -json output.
type report struct {
	Seed          int64            `json:"seed"`
	Clients       int              `json:"clients"`
	Rounds        int              `json:"rounds"`
	RoundSeconds  float64          `json:"round_seconds"`
	WarmupSeconds float64          `json:"warmup_seconds"`
	TraceSeconds  float64          `json:"trace_seconds"`
	Workloads     []workloadReport `json:"workloads"`
}

// summarize folds a workload's rounds into its end-to-end statistics.
func summarize(name string, rs []roundResult) workloadReport {
	wr := workloadReport{Name: name, EndToEnd: map[string]stat{}}
	failed := make([]float64, len(rs))
	for i, r := range rs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Samples += r.Samples
		failed[i] = float64(r.Failed) / float64(r.Attempted)
	}
	for _, m := range endToEnd {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = m.of(r)
		}
		wr.EndToEnd[m.name] = newStat(m.unit, xs)
	}
	wr.EndToEnd[failedRatio] = newStat("failed/attempted", failed)
	return wr
}

// measureWorkload runs n rounds of one workload back to back.
func measureWorkload(w workload, seed int64, n int, measure, warm time.Duration) (workloadReport, error) {
	var rs []roundResult
	for r := 0; r < n; r++ {
		res, err := spawnRound(w, seed, measure, warm)
		if err != nil {
			return workloadReport{}, err
		}
		rs = append(rs, res)
	}
	return summarize(w.name, rs), nil
}

// traceAll runs the traced replay of each workload for d, keeping the
// spans under one root when a Chrome trace is asked for.
func traceAll(ws []workload, seed int64, d time.Duration, chrome string) ([]traceResult, error) {
	var root *obs.Span
	if chrome != "" {
		root = obs.NewSpan("llhsc-perf")
	}
	var out []traceResult
	for _, w := range ws {
		span := root.StartChild("workload:" + w.name)
		tr, err := traceWorkload(w, seed, d, span)
		span.End()
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	if root == nil {
		return out, nil
	}
	root.End()
	f, err := os.Create(chrome)
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChromeTrace(f, root.Snapshot()); err != nil {
		f.Close()
		return nil, err
	}
	return out, f.Close()
}

// runOne is the one-workload form: end-to-end metrics over rounds, or
// with traced set the per-layer metrics of a traced run of d.
func runOne(name string, seed int64, d time.Duration, traced bool, chrome string, stdout io.Writer) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	if traced {
		trs, err := traceAll([]workload{w}, seed, d, chrome)
		if err != nil {
			return err
		}
		tr := trs[0]
		res.Attempted, res.Failed = tr.attempted, tr.failed
		for _, m := range perLayerMetrics() {
			res.Metrics[m.name] = value{tr.metrics[m.name], m.unit}
		}
	} else {
		wr, err := measureWorkload(w, seed, rounds, d/rounds, warmup)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = wr.Attempted, wr.Failed
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{wr.EndToEnd[m.name].Median, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errWrongAnswers
	}
	return nil
}

// runAll is the -json form: rounds round-robin across every workload,
// then a traced run of each, written to path and printed.
func runAll(seed int64, d time.Duration, path, chrome string, stdout io.Writer) error {
	rep, err := measureAll(seed, rounds, d/rounds, warmup, d/rounds, chrome)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	printReport(stdout, rep)
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return errWrongAnswers
		}
	}
	return nil
}

// measureAll runs n rounds of every workload round-robin, then each
// workload's traced run of traceFor.
func measureAll(seed int64, n int, measure, warm, traceFor time.Duration, chrome string) (report, error) {
	rep := report{
		Seed: seed, Clients: clients, Rounds: n, RoundSeconds: measure.Seconds(),
		WarmupSeconds: warm.Seconds(), TraceSeconds: traceFor.Seconds(),
	}
	perWorkload := make([][]roundResult, len(workloads))
	for r := 0; r < n; r++ {
		for i, w := range workloads {
			res, err := spawnRound(w, seed, measure, warm)
			if err != nil {
				return report{}, err
			}
			perWorkload[i] = append(perWorkload[i], res)
		}
	}
	trs, err := traceAll(workloads, seed, traceFor, chrome)
	if err != nil {
		return report{}, err
	}
	for i, w := range workloads {
		wr := summarize(w.name, perWorkload[i])
		wr.Attempted += trs[i].attempted
		wr.Failed += trs[i].failed
		wr.PerLayer = map[string]value{}
		for _, m := range perLayerMetrics() {
			wr.PerLayer[m.name] = value{trs[i].metrics[m.name], m.unit}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func printReport(w io.Writer, rep report) {
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s: %d requests, %d failed, %d latency samples\n", wr.Name, wr.Attempted, wr.Failed, wr.Samples)
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-26s %12.4f %-16s [%.4f, %.4f]\n", m.name, s.Median, s.Unit, s.Min, s.Max)
		}
		s := wr.EndToEnd[failedRatio]
		fmt.Fprintf(w, "  %-26s %12.4f %-16s [%.4f, %.4f]\n", failedRatio, s.Median, s.Unit, s.Min, s.Max)
		for _, m := range perLayerMetrics() {
			v := wr.PerLayer[m.name]
			fmt.Fprintf(w, "  %-26s %12.4f %s\n", m.name, v.Value, v.Unit)
		}
	}
}
