package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"llhsc/internal/constraints"
	"llhsc/internal/delta"
	"llhsc/internal/featmodel"
)

// Experiment E16 measures family-based lifted checking (DESIGN.md §14)
// against the enumerative baseline on the synthetic product line,
// sweeping the optional-feature count. The OR group over the UARTs
// makes the valid-product count exponential in the UART count
// (cpus x (2^uarts - 1)), so the enumerative arm — derive every
// product, run every concrete family on each tree — grows with the
// line while the lifted arm runs one merged-tree solver session whose
// cost tracks the variability, not the product count. Both arms must
// agree on the verdict at every sweep point; the synthetic line is
// clean by construction, so agreement means both report zero findings.

// LiftedPoint is one sweep point: the whole product line at a given
// feature count, measured under both arms.
type LiftedPoint struct {
	// Features is the optional-feature count driving the sweep (the
	// UART OR group; the CPU XOR group stays fixed).
	Features int
	// Products is the number of valid configurations the enumerative
	// arm derives and checks.
	Products int
	// EnumMillis is the enumerative arm's wall time: every product
	// applied and run through the four concrete checker families.
	EnumMillis float64
	// LiftedMillis is the lifted arm's wall time: one lift, one
	// incremental solver session for the whole line.
	LiftedMillis float64
	// LiftedQueries / LiftedPruned are the session's reachability
	// query and prune counters.
	LiftedQueries int
	LiftedPruned  int
	// EnumViolations / LiftedFindings are the two arms' finding
	// counts; VerdictsEqual is the acceptance bit (clean iff clean).
	EnumViolations int
	LiftedFindings int
	VerdictsEqual  bool
}

// LiftedResult is the outcome of experiment E16.
type LiftedResult struct {
	Points []LiftedPoint
	// Speedup is enumerative wall time / lifted wall time at the
	// largest sweep point — the acceptance metric (> 1).
	Speedup float64
}

// measureLiftedPoint runs both arms on the synthetic line with the
// given UART count, best of rounds.
func measureLiftedPoint(cpus, uarts, rounds int) (LiftedPoint, error) {
	point := LiftedPoint{Features: uarts}
	pipeline, err := SyntheticProductLine(cpus, uarts, 1)
	if err != nil {
		return point, err
	}
	products, complete := featmodel.NewAnalyzer(pipeline.Model).EnumerateProducts(0)
	if !complete {
		return point, fmt.Errorf("bench: product enumeration incomplete at %d uarts", uarts)
	}
	point.Products = len(products)
	ctx := context.Background()

	// ---- enumerative arm: every product, every concrete family ----
	for r := 0; r < rounds; r++ {
		violations := 0
		start := time.Now()
		for _, p := range products {
			cfg := featmodel.ConfigOf(p...)
			tree, _, err := pipeline.Deltas.Apply(pipeline.Core, cfg)
			if err != nil {
				return point, fmt.Errorf("bench: apply %v: %w", p, err)
			}
			vs, err := constraints.CheckFamilies(ctx, constraints.Families[:], pipeline.Schemas, &constraints.TreeFacts{Tree: tree})
			if err != nil {
				return point, err
			}
			violations += len(vs)
		}
		elapsed := time.Since(start).Seconds() * 1000
		if r == 0 || elapsed < point.EnumMillis {
			point.EnumMillis = elapsed
		}
		point.EnumViolations = violations
	}

	// ---- lifted arm: one merged tree, one solver session ----
	for r := 0; r < rounds; r++ {
		// A Set keeps its last lift; a fresh one per round times the
		// lift every round, as the enumerative arm derives every round.
		set, err := delta.NewSet(pipeline.Deltas.Deltas)
		if err != nil {
			return point, err
		}
		start := time.Now()
		lt, err := set.Lift(pipeline.Core)
		if err != nil {
			return point, fmt.Errorf("bench: lift: %w", err)
		}
		lc := constraints.NewLiftedChecker(pipeline.Model, pipeline.Schemas)
		findings, err := lc.CheckContext(ctx, lt)
		elapsed := time.Since(start).Seconds() * 1000
		if err != nil {
			return point, fmt.Errorf("bench: lifted check: %w", err)
		}
		st := lc.LastStats()
		if r == 0 || elapsed < point.LiftedMillis {
			point.LiftedMillis = elapsed
			point.LiftedQueries = st.Queries
			point.LiftedPruned = st.Pruned
		}
		point.LiftedFindings = len(findings)
	}

	point.VerdictsEqual = (point.EnumViolations == 0) == (point.LiftedFindings == 0)
	return point, nil
}

// MeasureLifted runs experiment E16: the UART sweep at a fixed CPU
// count, best of rounds per point. The gate is exact verdict agreement
// at every sweep point plus a real speedup at the largest one — 510
// products against one solver session leaves a wide timing margin.
func MeasureLifted(cpus int, uartSweep []int, rounds int) (*LiftedResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	res := &LiftedResult{}
	for _, uarts := range uartSweep {
		point, err := measureLiftedPoint(cpus, uarts, rounds)
		if err != nil {
			return nil, err
		}
		if !point.VerdictsEqual {
			return nil, fmt.Errorf(
				"bench: verdicts diverge at %d features: enumerative %d violation(s), lifted %d finding(s)",
				point.Features, point.EnumViolations, point.LiftedFindings)
		}
		res.Points = append(res.Points, point)
	}
	if n := len(res.Points); n > 0 && res.Points[n-1].LiftedMillis > 0 {
		res.Speedup = res.Points[n-1].EnumMillis / res.Points[n-1].LiftedMillis
	}
	if res.Speedup <= 1 {
		return nil, fmt.Errorf("bench: lifted checking not faster than enumeration at the largest point (%.2fx)", res.Speedup)
	}
	return res, nil
}

// RunE16 runs the lifted-checking experiment and prints the sweep
// table.
func RunE16(w io.Writer) error {
	res, err := MeasureLifted(2, []int{2, 4, 6, 8}, 2)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "family-based lifted checking vs product enumeration (2 CPUs, UART sweep):")
	fmt.Fprintf(w, "%9s %9s %12s %12s %9s %8s %6s\n",
		"features", "products", "enumerate", "lifted", "queries", "pruned", "equal")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%9d %9d %10.1fms %10.1fms %9d %8d %6v\n",
			p.Features, p.Products, p.EnumMillis, p.LiftedMillis,
			p.LiftedQueries, p.LiftedPruned, p.VerdictsEqual)
	}
	fmt.Fprintf(w, "largest point: lifted %.1fx faster than enumerating %d products\n",
		res.Speedup, res.Points[len(res.Points)-1].Products)
	return nil
}
