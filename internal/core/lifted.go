// Family-based lifted checking at the pipeline level (DESIGN.md §14):
// instead of deriving every product and checking each tree, ModeLifted
// merges the core and delta modules into one variability-aware tree
// (delta.LiftedTree) and discharges all constraint families for the
// WHOLE product line at once (constraints.LiftedChecker): over the
// line's valid products as sets when its feature tree allows at most
// 64 configurations, else in a single incremental solver session. Products are still derived for the
// requested VMs — their traces, DTS renderings and the Bao artifacts
// are unchanged — but no per-product family checking runs; the lifted
// findings, each carrying a concrete witness configuration, are the
// run's verdict.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
)

// Mode selects how the pipeline discharges the constraint families.
type Mode int

const (
	// ModeEnumerate (the default) derives one product per VM plus the
	// platform union and checks each tree independently — the paper's
	// original workflow.
	ModeEnumerate Mode = iota
	// ModeLifted checks the whole product line at once: one merged tree,
	// one reachability answer per candidate violation (a product-set
	// test, or a query of one incremental solver session on a line whose
	// feature tree allows more than 64 configurations). Verdicts cover every valid configuration,
	// not just the requested VMs, and each finding decodes to a witness
	// product (Report.Lifted).
	ModeLifted
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeEnumerate:
		return "enumerate"
	case ModeLifted:
		return "lifted"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "enumerate", "":
		return ModeEnumerate, nil
	case "lifted":
		return ModeLifted, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want enumerate or lifted)", s)
	}
}

// Set implements flag.Value, so binaries can register a *Mode directly
// with flag.Var and an invalid spelling fails at flag-parse time with
// the list of valid ones.
func (m *Mode) Set(v string) error {
	parsed, err := ParseMode(v)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// runLifted runs the family-based checker once for the whole product
// line over the front end's lifted tree (FrontEnd.Lifted, which lifts
// once per front end), filling Report.Lifted. With a Cache installed,
// the findings are kept under the run's key prefix — the Identity
// (which covers the feature model: which products are valid decides
// every finding and witness), the schema set and the knobs, the mode
// among them, so lifted and enumerative results are never served for
// one another. A hit skips the lift too.
func (p *Pipeline) runLifted(ctx context.Context, st *runState, report *Report, root *obs.Span) error {
	span := root.StartChild("lifted")
	defer span.End()
	compute := func() ([]constraints.LiftedFinding, error) {
		lt, err := p.Lifted()
		if err != nil {
			return nil, err
		}
		lc := constraints.NewLiftedChecker(p.Model, p.Schemas)
		lc.Budget = st.limits.Solver
		var t0 time.Time
		if p.Metrics != nil {
			t0 = time.Now()
		}
		findings, err := lc.CheckContext(ctx, lt)
		if p.Metrics != nil {
			p.Metrics.observeFamily("lifted", "lifted", time.Since(t0).Seconds())
		}
		stats := lc.LastStats()
		span.SetInt("products", uint64(stats.Products))
		if e := stats.Enumeration; e != (sat.Stats{}) {
			// The model keeps its products, so this work is left out of
			// the run's stats, as parsing is; the trace and the solver
			// counters still show it.
			span.SetInt("enumConflicts", e.Conflicts)
			span.SetInt("enumPropagations", e.Propagations)
			p.Metrics.observeSolver("lifted", e)
		}
		st.addFamily("lifted", familyStatsFromLifted(stats))
		st.addLifted(liftedRunStatsFrom(stats))
		return findings, err
	}
	var findings []constraints.LiftedFinding
	var err error
	if p.Cache == nil {
		findings, err = compute()
	} else {
		key := checkcache.Sum(checkcache.AppendPart(st.keyPrefix[:], "lifted"))
		var hit bool
		findings, hit, err = checkcache.Do(p.Cache, ctx, key, compute)
		if hit {
			span.SetAttr("cache", "hit")
		} else {
			span.SetAttr("cache", "miss")
		}
		st.addCache(hit)
	}
	if err != nil {
		// The front end keeps its lift's error, so this lifts only if a
		// cache wait failed before this front end lifted.
		if _, lerr := p.Lifted(); lerr != nil {
			return fmt.Errorf("core: lift: %w", lerr)
		}
		return st.limitError("lifted", err)
	}
	switch {
	case len(findings) == 0:
		findings = nil
	case p.Cache != nil:
		// The cache shares findings between runs, and Release clears
		// the report's copy. Their witness configurations are shared
		// too, so nothing may edit them.
		findings = slices.Clone(findings)
	}
	report.Lifted = findings
	span.SetInt("findings", uint64(len(report.Lifted)))
	return nil
}
