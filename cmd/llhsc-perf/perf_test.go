package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

const specPath = "../../BENCHMARK.json"

// TestMain lets the test binary stand in for the command when a test
// re-executes it for a measurement round.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestBenchmarkSmoke runs one 1-second round of every workload in its
// own process plus a short traced run, and checks the report against
// BENCHMARK.json.
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	rep, err := measureAll(1, 1, time.Second, 200*time.Millisecond, 500*time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wr := range rep.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed or got a wrong answer", wr.Name, wr.Failed, wr.Attempted)
		}
		for _, m := range sp.EndToEnd {
			if s, ok := wr.EndToEnd[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", wr.Name, m.Name, s)
			}
		}
		for _, m := range sp.PerLayer {
			if _, ok := wr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, m.Name)
			}
		}
		for name := range wr.EndToEnd {
			if !validName.MatchString(name) {
				t.Errorf("bad metric name %q", name)
			}
		}
		for name := range wr.PerLayer {
			if !validName.MatchString(name) {
				t.Errorf("bad metric name %q", name)
			}
		}
	}
	for _, w := range workloads {
		a, err := w.build(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(7)
		if err != nil {
			t.Fatal(err)
		}
		if poolHash(a) != poolHash(b) {
			t.Errorf("%s: seed 7 built two different request pools", w.name)
		}
	}
}

// poolHash fingerprints a pool's bodies and send order.
func poolHash(p *pool) string {
	h := sha256.New()
	for _, b := range p.bodies {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	for _, i := range p.stream {
		fmt.Fprintf(h, "%d,", i)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSyntheticLineText checks that the line-cached request text parses
// back into a line that derives the same products as the in-memory one.
func TestSyntheticLineText(t *testing.T) {
	line, err := syntheticLine()
	if err != nil {
		t.Fatal(err)
	}
	text, err := renderLine(line)
	if err != nil {
		t.Fatal(err)
	}
	coreTree, err := dts.Parse("core.dts", text.core)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := delta.Parse("deltas", text.deltas)
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.ParseModel("featuremodel", text.model)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Format(); got != text.model {
		t.Errorf("feature model does not round-trip:\n%s\nwant\n%s", got, text.model)
	}
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 2*len(lineClasses); n++ {
		b := newLineBody(rng, lineClasses[n%len(lineClasses)])
		var cfgs []featmodel.Configuration
		for _, sel := range b.configs() {
			cfgs = append(cfgs, featmodel.ConfigOf(sel...))
		}
		for _, cfg := range append(cfgs, featmodel.PlatformUnion(cfgs)) {
			want, wantTrace, err := line.Deltas.Apply(line.Core, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, gotTrace, err := deltas.Apply(coreTree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotTrace, wantTrace) || got.Print() != want.Print() {
				t.Fatalf("config %v: parsed line derives\n%s(trace %v)\nin-memory line derives\n%s(trace %v)",
					cfg.Sorted(), got.Print(), gotTrace, want.Print(), wantTrace)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	old := []float64{10, 10.1, 10.2, 10.3, 10.4}
	for _, c := range []struct {
		name        string
		cur         []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"within bound", []float64{10.3, 10.4, 10.5, 10.6, 10.7}, true, 0.10, "same"},
		{"slower beyond bound", []float64{12, 12, 12, 12, 12}, true, 0.10, "worse"},
		{"every round faster", []float64{9, 9, 9, 9, 9}, true, 0.10, "better"},
		{"throughput drop", []float64{8, 8, 8, 8, 8}, false, 0.10, "worse"},
		{"noisy parent", []float64{10.2, 10.2, 10.2, 10.2, 10.2}, true, 0.01, "unresolved"},
	} {
		if got := judge(old, c.cur, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge([]float64{0, 0, 0}, []float64{0, 0.01, 0}, true, 0); got != "worse" {
		t.Errorf("a failure after none: judge = %s, want worse", got)
	}
}

// TestBaselinesAgree holds the committed baseline runs of one commit to
// the benchmark's own bounds.
func TestBaselinesAgree(t *testing.T) {
	if err := compareReports([]string{"testdata/baseline/run1.json", "testdata/baseline/run2.json"}, specPath, io.Discard); err != nil {
		t.Fatal(err)
	}
}
