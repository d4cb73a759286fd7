// Experiment E19: deep-diagnostics overhead. The slow-query
// instrumentation (DESIGN.md §15) hooks every semantic pair decision
// and lifted reachability query; E19 measures what that observation
// costs relative to the uninstrumented pipeline. It runs the heavy line
// in lifted mode: on a clean line the semantic sweep leaves no
// candidate pair to decide (every candidate is a collision), so the
// lifted reachability queries are the decisions left to observe. Three
// modes:
//
//   - off          — SlowQuery nil, so the checkers' OnQuery hooks stay
//     nil and the decision loops keep their zero-allocation path (the
//     production default; the E5 alloc-gate test pins this).
//   - observe      — every query builds a QueryRecord and is counted,
//     but the threshold is unreachable, so nothing serializes (a
//     deployment with -slow-query-ms set but no slow queries).
//   - observe+log  — threshold 0: every query additionally marshals
//     and writes a JSON log line (the worst case, every query "slow").
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"llhsc/internal/core"
	"llhsc/internal/obs"
)

// DeepObsPoint is one measured mode of experiment E19.
type DeepObsPoint struct {
	Mode     string  // off | observe | observe+log
	Millis   float64 // best pipeline time in this mode
	Overhead float64 // this time / the "off" baseline
	// Queries is how many solver-level decisions the slow-query log
	// observed across the mode's rounds (0 in "off" mode: the hooks
	// are nil).
	Queries uint64
}

// DeepObsResult is the outcome of experiment E19.
type DeepObsResult struct {
	VMs    int
	Rounds int
	Points []DeepObsPoint
}

// deepObsModes enumerates E19's instrumentation ladder. newLog returns
// the slow-query log to install (nil = hooks stay nil entirely).
var deepObsModes = []struct {
	name   string
	newLog func() *obs.SlowQueryLog
}{
	{"off", func() *obs.SlowQueryLog { return nil }},
	{"observe", func() *obs.SlowQueryLog { return obs.NewSlowQueryLog(nil, math.MaxFloat64) }},
	{"observe+log", func() *obs.SlowQueryLog { return obs.NewSlowQueryLog(io.Discard, 0) }},
}

// MeasureDeepObsOverhead runs the same synthetic product line with the
// slow-query instrumentation off and on, keeping the best of rounds
// runs per mode. The first mode is the uninstrumented baseline every
// other mode is normalized against.
func MeasureDeepObsOverhead(vms, rounds int) (*DeepObsResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	res := &DeepObsResult{VMs: vms, Rounds: rounds}
	var baseline float64
	for _, mode := range deepObsModes {
		pipeline, err := HeavyProductLine(vms)
		if err != nil {
			return nil, err
		}
		pipeline.Mode = core.ModeLifted // see the file comment
		log := mode.newLog()
		pipeline.SlowQuery = log
		best := 0.0
		for r := 0; r < rounds; r++ {
			start := time.Now()
			report, err := pipeline.RunContext(context.Background(), core.Limits{Parallelism: 1})
			elapsed := time.Since(start).Seconds() * 1000
			if err != nil {
				return nil, fmt.Errorf("mode=%s: %w", mode.name, err)
			}
			if !report.OK() {
				return nil, fmt.Errorf("mode=%s: unexpected violations: %v",
					mode.name, report.AllViolations())
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		if log != nil && log.Observed() == 0 {
			return nil, fmt.Errorf("mode=%s: instrumentation observed no queries", mode.name)
		}
		if baseline == 0 {
			baseline = best // the validated "off" baseline
		}
		res.Points = append(res.Points, DeepObsPoint{
			Mode:     mode.name,
			Millis:   best,
			Overhead: best / baseline,
			Queries:  log.Observed(),
		})
	}
	return res, nil
}

// RunE19 measures the deep-diagnostics overhead (experiment E19): the
// same pipeline with the slow-query instrumentation off versus on.
func RunE19(w io.Writer) error {
	res, err := MeasureDeepObsOverhead(6, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %12s %10s %10s   (%d VMs + platform, serial, best of %d)\n",
		"mode", "pipeline", "overhead", "queries", res.VMs, res.Rounds)
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-16s %10.1fms %9.3fx %10d\n", p.Mode, p.Millis, p.Overhead, p.Queries)
	}
	return nil
}
