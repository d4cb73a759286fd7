// Command llhsc-perf is llhsc's end-to-end benchmark. It sends generated
// /check and /lint requests through the real internal/service handler,
// in process and with the options llhsc-server builds from its default
// flags, checks every reply against a known answer (a fast wrong answer
// counts as a failure), and reports what a user of the service sees. A
// separate traced run replays the same requests layer by layer and
// splits each request's time among the layers.
//
// Usage; cmd/llhsc-perf/run.sh builds the binary and passes its
// arguments on:
//
//	llhsc-perf --workload <name> --seed <n> --seconds <s> --trace 0|1 [-chrome trace.json]
//	llhsc-perf -json out.json [-seed n] [-seconds 30] [-chrome trace.json]
//	llhsc-perf -compare old.json new.json
//
// The first form measures one workload and prints, as its last line, a
// JSON object with the keys correct, attempted, failed and metrics:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. The second runs every workload, writes the full report to
// the -json file and prints each metric with its unit. The third,
// run from the repository root, compares two such reports under the
// bounds in BENCHMARK.json; see compare.go. Any wrong answer or
// non-2xx reply makes the command exit non-zero.
//
// # Load
//
// A closed loop of 2 clients, one per core of the 2-core reference
// machine: each client sends its next request only after the previous
// reply, like CI jobs waiting on a verdict. GOMAXPROCS is left alone.
// The measured --seconds of a workload are split into 5 rounds; each
// round runs in a fresh process (the command re-executes itself), so
// set-up time and memory belong to one workload, and measures after 1 s
// of warm-up. The -json form runs the rounds round-robin across
// workloads, so a noisy spell on a shared machine hits every workload
// alike. Each metric is the median over rounds; the report also keeps
// every round's value. Requests come from a pool generated from the
// seed, so one seed always yields the same requests. They are sent so
// that every few seconds of traffic hold the workload's exact mix:
// uniform pools in shuffled blocks that hold each body once,
// line-cached in smooth weighted round-robin order.
//
// # Workloads
//
//   - example: the paper's running example (Fig. 1a) in enumerate mode,
//     a uniform draw over ten hand-written two-VM selections that mix
//     valid pairs, same-CPU pairs and veth/CPU cross-constraint
//     violations; cache off so the repeated pool is checked every time.
//     Every layer does a little work; the SMT-backed syntactic checker
//     and the allocation SAT problem are the largest.
//   - example-lifted: the same pool and draw in lifted mode, where
//     delta.Lift and the lifted checker do most of the work and the
//     per-tree families none.
//   - line-cached: the E12/E16 synthetic board with 8 CPUs and 24 UARTs
//     plus one UART planted to overlap uart0, 8 VMs per request, Zipf
//     (s=1.1) traffic over 128 bodies holding about 1100 distinct trees,
//     against the server's default 256-tree check cache: popular bodies
//     hit, the tail misses and evicts. One body in eight gives two VMs
//     the same CPU. Delta application, printing, the cache key and the
//     semantic checker carry the load.
//   - corpus-lint: /lint, preprocessed and with the semantic checks, of
//     the kernel-style corpus boards (a frozen copy under
//     testdata/corpus). The preprocessor, the parser, lint and schema
//     validation do the work; delta, feature model, allocation and cache
//     are not touched.
//
// The known answers come from testdata/expected (written by hand from
// the paper's rules) and, for line-cached, from each body's own address
// arithmetic.
//
// # End-to-end metrics
//
//	setup_s           s                 process start to the end of the first, cold request: service, pool generation and encoding
//	latency_p50_ms    ms                median request latency through the handler
//	latency_p90_ms    ms                90th percentile request latency
//	throughput_rps    req/s             completed requests per second of the closed loop
//	cpu_ms_per_req    ms                process user+sys CPU (getrusage) per completed request
//	alloc_kb_per_req  KiB               growth of runtime.MemStats.TotalAlloc per completed request
//	rss_mb            MiB               median VmRSS of the round's process, sampled every 20 ms under load
//	failed_ratio      failed/attempted  non-2xx replies plus wrong answers (-json report only; the one-workload form reports failed and correct)
//
// The report also gives each workload's latency sample count. rss_mb
// stands in for the peak (VmHWM), which garbage-collection spikes of a
// few milliseconds make differ by half between identical runs.
//
// # Per-layer metrics and the trace
//
// The traced run never feeds the end-to-end numbers. One client sends
// each request to an untraced reference service, then replays it by
// calling each layer's public functions from replay.go, timing every
// call in an obs span named after its metric. Each "<layer>_us" metric
// is that layer's self time and the counts (dts.nodes, delta.ops, sat.*,
// constraints.*, lifted.*, checkcache.lookups and .evictions) the work
// it did, as means per request, so the layer times add up to the mean
// request; checkcache.hit_ratio is hits over lookups, with
// checkcache.lookups as its base. request_us is the reference service's
// mean time per request and unattributed_us that time less the layers'
// self times. trace.overhead_ratio is the replay's wall time over the
// reference's on the same requests. The replay's verdict must equal the
// service's for every request and every pool body.
//
// -chrome writes the traced requests as Chrome trace-event JSON, for
// chrome://tracing or Perfetto: one track per workload, one "request"
// slice per replayed request, and under it one slice per layer call
// ("vm<k>" and "platform" group the per-product calls of /check). A
// slice's self time is its width less that of the slices it encloses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// processStart approximates the process start for setup_s; package
// initialisation runs before main, after the runtime starts.
var processStart = time.Now()

const (
	rounds = 5
	warmup = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// errWrongAnswers marks a run that completed but saw failures; its
// result is still printed.
var errWrongAnswers = errors.New("some requests failed or got a wrong answer")

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("llhsc-perf", flag.ContinueOnError)
	name := fs.String("workload", "", "measure one workload: example, example-lifted, line-cached or corpus-lint")
	seed := fs.Int64("seed", 1, "seed the request pools are generated from")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload, split into rounds")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced replay and reports per-layer metrics")
	jsonOut := fs.String("json", "", "run every workload and write the full report to this file")
	chrome := fs.String("chrome", "", "write the traced requests as Chrome trace-event JSON to this file")
	compare := fs.Bool("compare", false, "compare two -json reports given as arguments, under the bounds in ./BENCHMARK.json")
	round := fs.Bool("round", false, "internal: measure one round of -workload in this process")
	warm := fs.Duration("warmup", warmup, "internal: warm-up before a round's measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	measure := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case *compare:
		err = compareReports(fs.Args(), "BENCHMARK.json", stdout)
	case *round:
		err = childRound(*name, *seed, measure, *warm, stdout)
	case *jsonOut != "":
		err = runAll(*seed, measure, *jsonOut, *chrome, stdout)
	case *name != "" && (*trace == 0 || *trace == 1):
		err = runOne(*name, *seed, measure, *trace == 1, *chrome, stdout)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "llhsc-perf:", err)
		return 1
	}
	return 0
}
