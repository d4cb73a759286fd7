package bench

import (
	"context"
	"testing"

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
