package constraints

import (
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/sat"
	"llhsc/internal/smt"
)

// This file is the semantic checker's test oracle: the paper's per-pair
// SMT query of Section IV-C, taken literally. For every eligible pair —
// all of them, with no sweep prefilter — it bit-blasts overlapTerm for
// both regions on a fresh solver and, when the query is satisfiable,
// minimizes the shared address bitwise. The production path (sweep,
// then the word tier) must reproduce its collisions, violations and
// witness bytes exactly; the suites in sweep_test.go,
// worddecide_test.go and report_oracle_test.go hold it to that.

// oraclePair decides one region pair by bit-blasting. On overlap the
// witness is the least shared address.
func oraclePair(t testing.TB, a, b addr.Region, width int) (bool, uint64) {
	t.Helper()
	sctx := smt.NewContext()
	solver := smt.NewSolver(sctx)
	x := sctx.BVVar("x", width)
	solver.Assert(overlapTerm(sctx, x, a, width))
	solver.Assert(overlapTerm(sctx, x, b, width))
	switch solver.Check() {
	case sat.Unsat:
		return false, 0
	case sat.Sat:
		return true, minimizeBV(t, solver, x, width)
	default:
		t.Fatal("oracle solver returned Unknown")
		return false, 0
	}
}

// minimizeBV narrows a satisfiable solver's model of x down to the
// numerically smallest value, by fixing bits most-significant-first:
// each probe asks whether the bit can be 0 given the bits already
// fixed; if not it is pinned to 1. Lexicographic minimization of the
// bit string is numeric minimization for an unsigned vector, so after
// width probes the fixed bits are the minimal model.
func minimizeBV(t testing.TB, solver *smt.Solver, x *smt.Term, width int) uint64 {
	t.Helper()
	sctx := solver.Context()
	var assume []*smt.Term
	var val uint64
	for i := width - 1; i >= 0; i-- {
		bit := sctx.Extract(x, i, i)
		zero := sctx.Eq(bit, sctx.BVConst(1, 0))
		switch solver.CheckAssuming(append(assume, zero)...) {
		case sat.Sat:
			assume = append(assume, zero)
		case sat.Unsat:
			assume = append(assume, sctx.Eq(bit, sctx.BVConst(1, 1)))
			val |= 1 << uint(i)
		default:
			t.Fatal("witness probe returned Unknown")
		}
	}
	return val
}

// oracleFindCollisions is FindCollisions decided pair by pair by the
// oracle, over every eligible pair in index order.
func oracleFindCollisions(t testing.TB, regions []addr.Region, width int) []Collision {
	t.Helper()
	sc := NewSemanticChecker()
	var out []Collision
	for _, p := range sc.candidatePairs(regions) {
		a, b := regions[p[0]], regions[p[1]]
		if overlap, w := oraclePair(t, a, b, width); overlap {
			out = append(out, Collision{A: a, B: b, Witness: w})
		}
	}
	sortCollisions(out)
	return out
}

// OracleCheck is NewSemanticChecker().Check with every decision made by
// the oracle. Exported for the external test package, whose suites need
// core and bench to build their trees.
func OracleCheck(t testing.TB, tree *dts.Tree) ([]Collision, []Violation) {
	t.Helper()
	regions, err := addr.CollectRegions(tree)
	var violations []Violation
	if err != nil {
		for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
			violations = append(violations, regionsViolation(e))
		}
	}
	collisions := oracleFindCollisions(t, regions, addr.BitWidth(tree.Root.AddressCells()))
	for _, c := range collisions {
		violations = append(violations, c.Violations()...)
	}
	return collisions, violations
}

// candidatePairs enumerates the region pairs that must not overlap —
// every pair pairEligible admits, in (i, j) index order, with no sweep
// prefilter.
func (sc *SemanticChecker) candidatePairs(regions []addr.Region) [][2]int {
	var pairs [][2]int
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if sc.pairEligible(regions[i], regions[j]) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// overlapTerm encodes b <= x ∧ x < b + s at the given width. Regions
// whose bounds exceed the width are truncated modulo 2^width, matching
// the hardware's address decoding.
func overlapTerm(ctx *smt.Context, x *smt.Term, r addr.Region, width int) *smt.Term {
	if r.Size == 0 {
		return ctx.False()
	}
	base := ctx.BVConst(width, r.Base)
	end := r.Base + r.Size
	overflows := end < r.Base // 64-bit wrap
	if width < 64 && end >= 1<<uint(width) {
		overflows = true
	}
	if overflows {
		// The region extends to (or past) the top of the address
		// space: only the lower bound constrains x. Regions that
		// genuinely wrap are reported separately by addr.ErrOverflow.
		return ctx.Ule(base, x)
	}
	return ctx.And(ctx.Ule(base, x), ctx.Ult(x, ctx.BVConst(width, end)))
}
