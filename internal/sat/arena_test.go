package sat

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"llhsc/internal/logic"
)

// TestArenaKeepsClausesIntact fills an arena with clauses of random
// lengths, from binary clauses to past the oversized threshold, across
// every chunk and slab growth step, and checks that each clause still
// holds exactly its literals at the end: no header moved and no slab
// was shared by two clauses' growth.
func TestArenaKeepsClausesIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a clauseArena
	var want [][]ilit
	var got []*clause
	for i := 0; i < 3000; i++ {
		n := 2 + rng.Intn(6)
		switch rng.Intn(50) {
		case 0:
			n = 100 + rng.Intn(1000)
		case 1:
			n = litSlabSize/2 + rng.Intn(3)
		}
		lits := make([]ilit, n)
		for k := range lits {
			lits[k] = ilit(rng.Uint32())
		}
		c := a.newClause(lits, i%2 == 0, float64(i))
		want = append(want, slices.Clone(lits))
		lits[0]++ // the arena holds a copy: the caller may reuse its slice
		got = append(got, c)
	}
	for i, c := range got {
		if !slices.Equal(c.lits, want[i]) || c.learnt != (i%2 == 0) || c.act != float64(i) {
			t.Fatalf("clause %d changed: %d lits, learnt %v, act %v", i, len(c.lits), c.learnt, c.act)
		}
		if len(c.lits) <= litSlabSize/2 && cap(c.lits) != len(c.lits) {
			t.Fatalf("clause %d can grow into its neighbour: len %d cap %d", i, len(c.lits), cap(c.lits))
		}
	}
	for i, chunk := range a.headers {
		if cap(chunk) > clauseChunkSize {
			t.Errorf("header chunk %d holds %d headers, cap is %d", i, cap(chunk), clauseChunkSize)
		}
	}
}

// smallSessionClauses is a session shaped like a lifted check's: 36
// binary and ternary clauses over 20 variables, as a DIMACS-style
// arena.
func smallSessionClauses() []logic.Lit {
	var clauses []logic.Lit
	for i := 1; i <= 18; i++ {
		v := logic.Lit(i)
		clauses = append(clauses, -v, v+1, 0, -v-2, v, -(v + 1), 0)
	}
	return clauses
}

// TestSmallSessionBytes bounds the memory of a small session, loaded
// with AddClauses as a model's Encoding is. Its clause storage starts
// small and grows with the session, so the session takes about 8 KB,
// where a 256-header chunk and a 4,096-literal slab up front made it
// about 33 KB.
func TestSmallSessionBytes(t *testing.T) {
	clauses := smallSessionClauses()
	session := func() *Solver {
		s := New()
		s.AddClauses(20, clauses)
		return s
	}
	if st := session().Stats(); st.Clauses != 36 || st.Vars != 20 {
		t.Fatalf("session has %d clauses over %d vars, want 36 over 20", st.Clauses, st.Vars)
	}
	const runs, bound = 200, 12 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		keepSolver = session()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > bound {
		t.Errorf("a 36-clause session allocates %d bytes, want <= %d", perRun, bound)
	}
}

// TestSmallSessionAllocs gates the allocations of loading a small
// session with AddClauses at the measured 98. The variable heap is
// sized once; growing it one variable at a time took 108.
func TestSmallSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clauses := smallSessionClauses()
	const bound = 98
	if allocs := testing.AllocsPerRun(100, func() {
		s := New()
		s.AddClauses(20, clauses)
		keepSolver = s
	}); allocs > bound {
		t.Errorf("a 36-clause session allocates %.0f times, want <= %d", allocs, bound)
	}
}

// keepSolver keeps measured sessions reachable, so the compiler cannot
// drop their construction.
var keepSolver *Solver
