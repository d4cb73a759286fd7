package bench

import (
	"context"
	"fmt"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/constraints"
	"llhsc/internal/sat"
	"llhsc/internal/smt"
)

// AnyCollision poses a single disjunctive query — does ANY pair of
// regions overlap? This is the formulation closest to the paper's
// one-shot formula (7), over every pair i < j, and the workload of
// the E8 scaling benchmark; no production package builds it. It
// applies none of the production checker's eligibility rules
// (same-node banks, virtual windows), so it assumes what E8's regions
// satisfy: each is a distinct device node, non-empty, and ends below
// 2^width. It also returns the solver's statistics, whose variable
// and clause counts are the query's encoding size.
//
// A single witness variable x is shared by all disjuncts (only one
// colliding pair needs witnessing), so hash-consing reduces the
// encoding to two comparator chains per *region* plus one small
// selector clause per pair — O(n) bit-vector logic for O(n²) pairs.
func AnyCollision(regions []addr.Region, width int) (constraints.Collision, bool, smt.Stats) {
	if len(regions) < 2 {
		return constraints.Collision{}, false, smt.Stats{}
	}
	ctx := smt.NewContext()
	solver := smt.NewSolver(ctx)
	x := ctx.BVVar("x", width)

	in := make([]*smt.Term, len(regions))
	for i, r := range regions {
		in[i] = inRegion(ctx, x, r, width)
	}
	var pairs [][2]int
	var sel []*smt.Term
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			s := ctx.BoolVar(fmt.Sprintf("sel%d", len(pairs)))
			pairs = append(pairs, [2]int{i, j})
			sel = append(sel, s)
			solver.Assert(ctx.Implies(s, ctx.And(in[i], in[j])))
		}
	}
	solver.Assert(ctx.Or(sel...))
	if solver.Check() != sat.Sat {
		return constraints.Collision{}, false, solver.Stats()
	}
	for k, pair := range pairs {
		if solver.BoolValue(sel[k]) {
			return constraints.Collision{
				A: regions[pair[0]], B: regions[pair[1]],
				Witness: solver.BVValue(x),
			}, true, solver.Stats()
		}
	}
	return constraints.Collision{}, false, solver.Stats()
}

// inRegion encodes b <= x ∧ x < b + s for region r at the given width,
// the per-region conjunct of the one-shot query.
func inRegion(ctx *smt.Context, x *smt.Term, r addr.Region, width int) *smt.Term {
	return ctx.And(
		ctx.Ule(ctx.BVConst(width, r.Base), x),
		ctx.Ult(x, ctx.BVConst(width, r.Base+r.Size)),
	)
}

// BenchmarkE8OverlapScaling times E8: one planted collision among n
// regions, found by the production checker (sweep, then word tier)
// and by the one-shot query, whose encoding size it reports as
// sat-vars and sat-clauses.
func BenchmarkE8OverlapScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		regions := SyntheticRegions(n, true)
		b.Run(fmt.Sprintf("perpair/n=%d", n), func(b *testing.B) {
			sc := constraints.NewSemanticChecker()
			for i := 0; i < b.N; i++ {
				if got := sc.FindCollisions(regions, 32); len(got) == 0 {
					b.Fatal("planted collision missed")
				}
			}
		})
		b.Run(fmt.Sprintf("onequery/n=%d", n), func(b *testing.B) {
			var st smt.Stats
			for i := 0; i < b.N; i++ {
				var ok bool
				if _, ok, st = AnyCollision(regions, 32); !ok {
					b.Fatal("planted collision missed")
				}
			}
			b.ReportMetric(float64(st.SAT.Vars), "sat-vars")
			b.ReportMetric(float64(st.SAT.Clauses), "sat-clauses")
		})
	}
}

// TestSweepSolverCallReduction pins the semantic checker's work profile
// deterministically: at 256 regions the sweep must submit at least 5x
// fewer pairs than the naive all-pairs schedule, and the word tier must
// decide every one of them without a solver call.
func TestSweepSolverCallReduction(t *testing.T) {
	const n = 256
	regions := SyntheticRegions(n, true)
	sc := constraints.NewSemanticChecker()
	out, err := sc.FindCollisionsContext(context.Background(), regions, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("collisions = %d, want the 1 planted overlap", len(out))
	}
	st := sc.LastStats()
	naive := n * (n - 1) / 2
	if st.Pairs*5 > naive || st.Pairs+st.PairsPruned != naive {
		t.Errorf("sweep submitted %d pairs (%d pruned) at %d regions; want >= 5x fewer than the %d naive pairs",
			st.Pairs, st.PairsPruned, n, naive)
	}
	if st.SolverCalls != 0 || st.WordDecided != st.Pairs {
		t.Errorf("stats %+v: want every pair word-decided and no solver calls", st)
	}
}

func TestSemanticAnyCollisionAgreesWithFindCollisions(t *testing.T) {
	regions := []addr.Region{
		{Base: 0x1000, Size: 0x1000, Path: "/a", Kind: addr.KindDevice},
		{Base: 0x3000, Size: 0x1000, Path: "/b", Kind: addr.KindDevice},
		{Base: 0x1800, Size: 0x100, Path: "/c", Kind: addr.KindDevice},
	}
	sc := constraints.NewSemanticChecker()
	all := sc.FindCollisions(regions, 32)
	one, ok, _ := AnyCollision(regions, 32)
	if len(all) != 1 {
		t.Fatalf("FindCollisions = %v", all)
	}
	if !ok {
		t.Fatal("AnyCollision found nothing")
	}
	if one.A.Path != "/a" || one.B.Path != "/c" {
		t.Errorf("AnyCollision = %v", one)
	}
	if !one.A.Contains(one.Witness) || !one.B.Contains(one.Witness) {
		t.Errorf("witness %#x not shared", one.Witness)
	}

	disjoint := []addr.Region{
		{Base: 0x0, Size: 0x10, Path: "/a"},
		{Base: 0x100, Size: 0x10, Path: "/b"},
	}
	if _, ok, _ := AnyCollision(disjoint, 32); ok {
		t.Error("AnyCollision on disjoint regions")
	}
	if got := sc.FindCollisions(disjoint, 32); len(got) != 0 {
		t.Errorf("FindCollisions on disjoint regions = %v", got)
	}
}
