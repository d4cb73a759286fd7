package constraints

import (
	"context"

	"llhsc/internal/addr"
	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
)

// The overlap, interrupt and memreserve rules are each written once,
// for both checking modes (DESIGN.md §14): a rule reads guarded facts —
// a concrete value plus the featmodel.Guard under which it exists, 0
// meaning "always" — and reports each violation to a sink with the
// guards it depends on. The enumerative checkers read the facts off a
// dts.Tree with 0 guards and give the sink no session, so no guard is
// combined and every violation is reported; LiftedChecker reads them
// off the LiftedTree and gives it the session's guard algebra and
// reachability oracle, so a violation is reported when some valid
// configuration exhibits it, with that configuration as witness.

// guardedRegion is a region fact: the region exists wherever cond
// holds, decoded at the given address width.
type guardedRegion struct {
	reg   addr.Region
	cond  featmodel.Guard
	width int
}

// sink receives one rule family's violations.
type sink struct {
	// pe composes guards (And, Not, Or) and reach answers them: the
	// lifted session and its reachability oracle. Both are nil in
	// enumerative mode, where every guard is 0 and none is composed.
	pe    *featmodel.PresenceEncoder
	reach func(g featmodel.Guard) bool
	// emit receives each reported violation with the reachable guard it
	// holds under, whose witness the lifted sink decodes (0 in
	// enumerative mode).
	emit func(g featmodel.Guard, v Violation)
}

// collect returns the enumerative sink: every violation is appended to
// *out.
func collect(out *[]Violation) sink {
	return sink{emit: func(_ featmodel.Guard, v Violation) { *out = append(*out, v) }}
}

// holds reports whether some valid configuration satisfies a ∧ b, and
// returns that conjunction. With no oracle it always holds, and the
// guards are never combined.
func (s sink) holds(a, b featmodel.Guard) (featmodel.Guard, bool) {
	if s.reach == nil {
		return 0, true
	}
	g := s.pe.And(a, b)
	return g, s.reach(g)
}

// report delivers v if a ∧ b holds.
func (s sink) report(a, b featmodel.Guard, v Violation) {
	if g, ok := s.holds(a, b); ok {
		s.emit(g, v)
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
