package constraints

import (
	"context"

	"llhsc/internal/addr"
	"llhsc/internal/featmodel"
)

// The overlap, interrupt and memreserve rules are each written once,
// for both checking modes (DESIGN.md §14): a rule reads guarded facts —
// a concrete value plus the featmodel.Guard under which it exists, 0
// meaning "always" — and reports each violation to a sink with the
// guards it depends on. The enumerative checkers read the facts off a
// dts.Tree with 0 guards and give the sink no lifted run, so no guard
// is combined and every violation is reported; LiftedChecker reads them
// off the LiftedTree and gives it the run, whose guard algebra answers
// reachability, so a violation is reported when some valid
// configuration exhibits it, with that configuration as witness.

// guardedRegion is a region fact: the region exists wherever cond
// holds, decoded at the given address width.
type guardedRegion struct {
	reg   addr.Region
	cond  featmodel.Guard
	width int
}

// guardAlgebra is what a lifted check composes presence conditions in
// and asks reachability of (DESIGN.md §14): featmodel.ProductSets for
// a model whose feature tree allows at most featmodel.MaxProductSet
// configurations, else a featmodel.PresenceEncoder session. Both give
// equal guards one handle, make the zero Guard "every valid
// configuration", return the other operand of an And with 0 and 0 for
// an Or with 0 without reading the algebra, and answer Not(0) with a
// guard no valid configuration satisfies.
type guardAlgebra interface {
	// Guard returns the handle of e; nil is the always guard 0.
	Guard(e *featmodel.Expr) featmodel.Guard
	And(a, b featmodel.Guard) featmodel.Guard
	Not(g featmodel.Guard) featmodel.Guard
	Or(a, b featmodel.Guard) featmodel.Guard
	// Reachable reports whether some valid configuration satisfies g.
	// A non-nil error means ctx (its ctx.Err()) or a budget (a
	// *sat.LimitError) stopped the answer.
	Reachable(ctx context.Context, g featmodel.Guard) (bool, error)
	// Witness returns a valid configuration satisfying g, which
	// Reachable must have found reachable.
	Witness(g featmodel.Guard) featmodel.Configuration
}

// sink receives one rule family's violations.
type sink struct {
	// run is the lifted run, whose guard algebra (run.pe) composes
	// guards (And, Not, Or) and answers their reachability; nil in
	// enumerative mode, where every guard is 0 and none is composed. It
	// is a pointer to the run rather than the algebra itself because a
	// rule that calls a method of an interface held in its sink lets the
	// sink escape, and with it the emit closure, one allocation per
	// rule call.
	run *liftedRun
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
// returns that conjunction. With no lifted run it always holds, and
// the guards are never combined.
func (s sink) holds(a, b featmodel.Guard) (featmodel.Guard, bool) {
	if s.run == nil {
		return 0, true
	}
	g := s.run.pe.And(a, b)
	return g, s.run.reachable(g)
}

// report delivers v if a ∧ b holds.
func (s sink) report(a, b featmodel.Guard, v Violation) {
	if g, ok := s.holds(a, b); ok {
		s.emit(g, v)
	}
}
