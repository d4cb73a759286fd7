// Family-based lifted checking at the pipeline level (DESIGN.md §14):
// instead of deriving every product and checking each tree, ModeLifted
// merges the core and delta modules into one variability-aware tree
// (delta.LiftedTree) and discharges all constraint families for the
// WHOLE product line in a single incremental solver session
// (constraints.LiftedChecker). Products are still derived for the
// requested VMs — their traces, DTS renderings and the Bao artifacts
// are unchanged — but no per-product family checking runs; the lifted
// findings, each carrying a concrete witness configuration, are the
// run's verdict.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
)

// Mode selects how the pipeline discharges the constraint families.
type Mode int

const (
	// ModeEnumerate (the default) derives one product per VM plus the
	// platform union and checks each tree independently — the paper's
	// original workflow.
	ModeEnumerate Mode = iota
	// ModeLifted checks the whole product line at once: one merged tree,
	// one incremental solver session, one reachability query per
	// candidate violation. Verdicts cover every valid configuration,
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

// runLifted lifts the delta set over the core module and runs the
// family-based checker once for the whole product line, filling
// Report.Lifted. With a Cache installed, the result is memoized under
// the merged tree's dump, the feature model's text (which products
// are valid decides every finding and witness), and the same budget
// knobs the per-product keys fold in (the mode is part of the knob
// string, so lifted and enumerative verdicts can never be served for
// one another).
func (p *Pipeline) runLifted(ctx context.Context, st *runState, report *Report, root *obs.Span) error {
	span := root.StartChild("lifted")
	defer span.End()
	lt, err := p.Deltas.Lift(p.Core)
	if err != nil {
		return fmt.Errorf("core: lift: %w", err)
	}
	compute := func() ([]constraints.Violation, error) {
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
		st.addFamily("lifted", familyStatsFromLifted(stats))
		st.addLifted(liftedRunStatsFrom(stats))
		if err != nil {
			return nil, err
		}
		return encodeLiftedFindings(findings), nil
	}
	var encoded []constraints.Violation
	if p.Cache == nil {
		encoded, err = compute()
	} else {
		key := checkcache.Key(lt.Dump(), p.Model.Format(), st.schemaFP, st.knobs)
		var hit bool
		encoded, hit, err = p.Cache.Do(ctx, key, compute)
		if hit {
			span.SetAttr("cache", "hit")
		} else {
			span.SetAttr("cache", "miss")
		}
		st.addCache(hit)
	}
	if err != nil {
		return st.limitError("lifted", err)
	}
	report.Lifted = decodeLiftedFindings(encoded)
	span.SetInt("findings", uint64(len(report.Lifted)))
	return nil
}

// liftedWitnessRule marks the sidecar violation that carries a lifted
// finding's family and witness configuration through the check cache,
// whose value type is a violation list. The marker precedes its
// finding's violation; the pair round-trips losslessly and never
// escapes the core package (decode happens immediately after Do).
const liftedWitnessRule = "lifted:witness"

// encodeLiftedFindings flattens findings into the violation-list shape
// the check cache stores: [witness-marker, violation] per finding.
func encodeLiftedFindings(fs []constraints.LiftedFinding) []constraints.Violation {
	out := make([]constraints.Violation, 0, 2*len(fs))
	for _, f := range fs {
		out = append(out, constraints.Violation{
			Rule:    liftedWitnessRule,
			Path:    f.Family,
			Message: strings.Join(f.Config.Sorted(), " "),
		}, f.Violation)
	}
	return out
}

// decodeLiftedFindings reverses encodeLiftedFindings.
func decodeLiftedFindings(vs []constraints.Violation) []constraints.LiftedFinding {
	out := make([]constraints.LiftedFinding, 0, len(vs)/2)
	for i := 0; i+1 < len(vs); i += 2 {
		out = append(out, constraints.LiftedFinding{
			Family:    vs[i].Path,
			Config:    featmodel.ConfigOf(strings.Fields(vs[i].Message)...),
			Violation: vs[i+1],
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
