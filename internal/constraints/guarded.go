package constraints

import (
	"context"

	"llhsc/internal/addr"
	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
)

// The overlap, interrupt and memreserve rules are each written once,
// for both checking modes (DESIGN.md §14): a rule reads guarded facts —
// a concrete value plus the *featmodel.Expr guard under which it
// exists, nil meaning "always" — and reports each violation to a sink
// with the guards it depends on. The enumerative checkers read the
// facts off a dts.Tree with nil guards and give the sink no oracle, so
// no guard is combined and every violation is reported; LiftedChecker
// reads them off the LiftedTree and gives it the session's
// reachability oracle, so a violation is reported when some valid
// configuration exhibits it, with that configuration as witness.

// guardedRegion is a region fact: the region exists wherever cond
// holds, decoded at the given address width.
type guardedRegion struct {
	reg   addr.Region
	cond  *featmodel.Expr
	width int
}

// sink receives one rule family's violations.
type sink struct {
	// reach is the lifted session's reachability oracle; nil in
	// enumerative mode, where every guard is nil.
	reach func(cond *featmodel.Expr) (bool, featmodel.Configuration)
	// emit receives each reported violation with its witness
	// configuration (nil in enumerative mode).
	emit func(cfg featmodel.Configuration, v Violation)
}

// collect returns the enumerative sink: every violation is appended to
// *out.
func collect(out *[]Violation) sink {
	return sink{emit: func(_ featmodel.Configuration, v Violation) { *out = append(*out, v) }}
}

// holds reports whether some valid configuration satisfies a ∧ b, and
// which. With no oracle it always holds, and the guards are never
// combined.
func (s sink) holds(a, b *featmodel.Expr) (featmodel.Configuration, bool) {
	if s.reach == nil {
		return nil, true
	}
	ok, cfg := s.reach(featmodel.AndOpt(a, b))
	return cfg, ok
}

// report delivers v if a ∧ b holds.
func (s sink) report(a, b *featmodel.Expr, v Violation) {
	if cfg, ok := s.holds(a, b); ok {
		s.emit(cfg, v)
	}
}

// pollCanceled is the per-pair cancellation check of the rule loops,
// which have no solver to poll the context for them: a done context
// becomes a *sat.LimitError wrapping its cause.
func pollCanceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &sat.LimitError{Reason: sat.StopCanceled, Err: err}
	}
	return nil
}
