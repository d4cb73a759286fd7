package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"llhsc/internal/core"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// HeavyProductLine is SyntheticProductLine tuned for the parallel
// speedup experiment E13: every VM selects its exclusive cpu@k plus ALL
// UARTs, so each derived tree carries the full device population. With
// near-equal weight per tree (VMs + platform union), the run
// parallelizes cleanly instead of being dominated by one big platform
// job (Amdahl).
//
// The line's disjoint UART regions give the semantic family no pair to
// decide (its sweep prunes them all), so every UART also claims
// heavyIRQsPerUART interrupt lines of its own: the interrupt family
// compares O(n²) distinct claims per tree, and the line stays valid.
func HeavyProductLine(vms int) (*core.Pipeline, error) {
	pipeline, err := SyntheticProductLine(vms, vms, vms)
	if err != nil {
		return nil, err
	}
	for k := 0; k < vms; k++ {
		cfg := featmodel.ConfigOf("BigBoard", "memory", "cpus", fmt.Sprintf("cpu@%d", k), "uarts")
		for u := 0; u < vms; u++ {
			cfg[fmt.Sprintf("uart%d", u)] = true
		}
		pipeline.VMConfigs[k] = cfg
	}
	for u := 0; u < vms; u++ {
		uart := pipeline.Core.Root.Child(fmt.Sprintf("uart@%x", 0x10000000+u*0x10000))
		if uart == nil {
			return nil, fmt.Errorf("bench: synthetic line has no uart%d", u)
		}
		irqs := make([]uint32, heavyIRQsPerUART)
		for i := range irqs {
			irqs[i] = uint32(32 + u*heavyIRQsPerUART + i)
		}
		uart.SetProperty(&dts.Property{Name: "interrupts", Value: dts.CellsValue(irqs...)})
	}
	return pipeline, nil
}

// heavyIRQsPerUART sizes HeavyProductLine's interrupt work: claim pairs
// compared by equality, each polling the context once.
const heavyIRQsPerUART = 4

// ParallelPoint is one measured configuration of experiment E13.
type ParallelPoint struct {
	Workers int     `json:"workers"`
	Millis  float64 `json:"millis"`
	Speedup float64 `json:"speedup"` // serial time / this time
}

// ParallelResult is the JSON artifact of experiment E13
// (BENCH_parallel.json).
type ParallelResult struct {
	VMs    int             `json:"vms"`
	Rounds int             `json:"rounds"`
	Points []ParallelPoint `json:"points"`
}

// MeasureParallel runs the heavy product line at each worker count,
// keeping the best of rounds runs per point (the usual benchmarking
// guard against scheduler noise). workerCounts must start at 1: the
// first point is the serial baseline every speedup is normalized
// against, so accepting an arbitrary first entry would silently label
// a relative ratio as speedup.
func MeasureParallel(vms int, workerCounts []int, rounds int) (*ParallelResult, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf(
			"bench: workerCounts must start with 1 (the serial baseline), got %v", workerCounts)
	}
	if rounds < 1 {
		rounds = 1
	}
	res := &ParallelResult{VMs: vms, Rounds: rounds}
	var serial float64
	for _, workers := range workerCounts {
		pipeline, err := HeavyProductLine(vms)
		if err != nil {
			return nil, err
		}
		pipeline.SkipDTS = false
		best := 0.0
		for r := 0; r < rounds; r++ {
			start := time.Now()
			report, err := pipeline.RunContext(context.Background(),
				core.Limits{Parallelism: workers})
			elapsed := time.Since(start).Seconds() * 1000
			if err != nil {
				return nil, fmt.Errorf("workers=%d: %w", workers, err)
			}
			if !report.OK() {
				return nil, fmt.Errorf("workers=%d: unexpected violations: %v",
					workers, report.AllViolations())
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		if serial == 0 {
			serial = best // the validated workers=1 baseline
		}
		res.Points = append(res.Points, ParallelPoint{
			Workers: workers,
			Millis:  best,
			Speedup: serial / best,
		})
	}
	return res, nil
}

// RunE13 measures the parallel pipeline speedup over a synthetic 8-VM
// product line (experiment E13) and prints the scaling table.
func RunE13(w io.Writer) error {
	res, err := MeasureParallel(8, []int{1, 2, 4, 8}, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %12s %10s   (%d VMs + platform, best of %d)\n",
		"workers", "pipeline", "speedup", res.VMs, res.Rounds)
	for _, p := range res.Points {
		fmt.Fprintf(w, "%8d %10.1fms %9.2fx\n", p.Workers, p.Millis, p.Speedup)
	}
	return nil
}

// WriteParallelJSON runs E13's measurement and writes the JSON artifact
// consumed by CI (BENCH_parallel.json).
func WriteParallelJSON(path string, vms int) error {
	res, err := MeasureParallel(vms, []int{1, 2, 4, 8}, 3)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
