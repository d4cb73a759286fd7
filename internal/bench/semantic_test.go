package bench

import (
	"context"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/constraints"
)

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
	one, ok := AnyCollision(regions, 32)
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
	if _, ok := AnyCollision(disjoint, 32); ok {
		t.Error("AnyCollision on disjoint regions")
	}
	if got := sc.FindCollisions(disjoint, 32); len(got) != 0 {
		t.Errorf("FindCollisions on disjoint regions = %v", got)
	}
}
