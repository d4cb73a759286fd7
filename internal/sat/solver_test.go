package sat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"llhsc/internal/logic"
)

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
}

func TestUnitClauses(t *testing.T) {
	s := New()
	s.AddClause(1)
	s.AddClause(-2)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	if !s.Value(1) || s.Value(2) {
		t.Errorf("model: v1=%v v2=%v, want true,false", s.Value(1), s.Value(2))
	}
}

func TestContradictionViaUnits(t *testing.T) {
	s := New()
	s.AddClause(1)
	if ok := s.AddClause(-1); ok {
		t.Error("adding -1 after 1 should report inconsistency")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := New()
	// 1 -> 2 -> 3 -> 4, and 1.
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3, 4)
	s.AddClause(1)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	for v := logic.Var(1); v <= 4; v++ {
		if !s.Value(v) {
			t.Errorf("v%d = false, want true", v)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n) is a classic hard unsat family; keep n small.
	for _, n := range []int{2, 3, 4, 5} {
		s := New()
		// var(p, h) for pigeon p in hole h
		v := func(p, h int) logic.Lit { return logic.Lit(p*n + h + 1) }
		for p := 0; p <= n; p++ {
			cl := make([]logic.Lit, n)
			for h := 0; h < n; h++ {
				cl[h] = v(p, h)
			}
			s.AddClause(cl...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(-v(p1, h), -v(p2, h))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d): got %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons in n holes is satisfiable.
	n := 5
	s := New()
	v := func(p, h int) logic.Lit { return logic.Lit(p*n + h + 1) }
	for p := 0; p < n; p++ {
		cl := make([]logic.Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = v(p, h)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	// verify the model is a valid assignment of pigeons to holes
	for p := 0; p < n; p++ {
		count := 0
		for h := 0; h < n; h++ {
			if s.Value(v(p, h).Var()) {
				count++
			}
		}
		if count < 1 {
			t.Errorf("pigeon %d unplaced", p)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(-1, 2)  // 1 -> 2
	s.AddClause(-2, -3) // 2 -> !3

	if got := s.Solve(1, 3); got != Unsat {
		t.Fatalf("Solve(1,3) = %v, want Unsat", got)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("expected non-empty failed assumptions")
	}
	seen := make(map[logic.Lit]bool)
	for _, l := range failed {
		seen[l] = true
	}
	if !seen[1] && !seen[3] {
		t.Errorf("failed assumptions %v should mention assumption 1 or 3", failed)
	}

	// Same problem without the conflicting assumption is Sat.
	if got := s.Solve(1); got != Sat {
		t.Fatalf("Solve(1) = %v, want Sat", got)
	}
	if !s.Value(1) || !s.Value(2) || s.Value(3) {
		t.Errorf("model %v,%v,%v; want true,true,false",
			s.Value(1), s.Value(2), s.Value(3))
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve = %v, want Sat", got)
	}
	s.AddClause(-1)
	s.AddClause(-2)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after forcing both false: %v, want Unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	s.AddClause(1, -1)   // tautology: ignored
	s.AddClause(2, 2, 2) // duplicates collapse to unit
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(2) {
		t.Error("v2 should be true")
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// genRandom3SAT builds a random 3-SAT instance with the given seed.
func genRandom3SAT(rng *rand.Rand, nvars, nclauses int) [][]logic.Lit {
	cls := make([][]logic.Lit, nclauses)
	for i := range cls {
		cl := make([]logic.Lit, 3)
		for j := range cl {
			v := logic.Lit(rng.Intn(nvars) + 1)
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl[j] = v
		}
		cls[i] = cl
	}
	return cls
}

// bruteForceSat checks satisfiability by exhaustion (nvars <= 20).
func bruteForceSat(cls [][]logic.Lit, nvars int) bool {
	for mask := uint64(0); mask < 1<<uint(nvars); mask++ {
		ok := true
		for _, cl := range cls {
			sat := false
			for _, l := range cl {
				val := mask&(1<<uint(l.Var()-1)) != 0
				if val == l.Positive() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		nvars := 4 + rng.Intn(9) // 4..12
		// around the phase transition ratio 4.26 for variety
		nclauses := int(float64(nvars)*4.3) + rng.Intn(5)
		cls := genRandom3SAT(rng, nvars, nclauses)
		s := New()
		consistent := true
		for _, cl := range cls {
			if !s.AddClause(cl...) {
				consistent = false
			}
		}
		got := s.Solve()
		want := bruteForceSat(cls, nvars)
		if want && (got != Sat || !consistent && got == Sat) {
			t.Fatalf("iter %d: got %v, want Sat", iter, got)
		}
		if !want && got != Unsat {
			t.Fatalf("iter %d: got %v, want Unsat", iter, got)
		}
		if got == Sat {
			// verify the model satisfies every clause
			for ci, cl := range cls {
				sat := false
				for _, l := range cl {
					if s.Value(l.Var()) == l.Positive() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy clause %d (%v)", iter, ci, cl)
				}
			}
		}
	}
}

func TestRandomWithAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		nvars := 4 + rng.Intn(6)
		nclauses := nvars * 3
		cls := genRandom3SAT(rng, nvars, nclauses)
		s := New()
		for _, cl := range cls {
			s.AddClause(cl...)
		}
		// random assumptions over distinct vars
		nass := 1 + rng.Intn(3)
		assumptions := make([]logic.Lit, 0, nass)
		used := make(map[logic.Var]bool)
		for len(assumptions) < nass {
			v := logic.Var(rng.Intn(nvars) + 1)
			if used[v] {
				continue
			}
			used[v] = true
			l := logic.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			assumptions = append(assumptions, l)
		}
		all := append([][]logic.Lit{}, cls...)
		for _, a := range assumptions {
			all = append(all, []logic.Lit{a})
		}
		want := bruteForceSat(all, nvars)
		got := s.Solve(assumptions...)
		if want && got != Sat || !want && got != Unsat {
			t.Fatalf("iter %d: got %v, want sat=%v (assumptions %v)", iter, got, want, assumptions)
		}
		// solver must remain reusable: solving without assumptions
		// reflects only the clause set.
		base := s.Solve()
		baseWant := bruteForceSat(cls, nvars)
		if baseWant && base != Sat || !baseWant && base != Unsat {
			t.Fatalf("iter %d: base re-solve got %v, want sat=%v", iter, base, baseWant)
		}
	}
}

func TestAddCNFFromTseitin(t *testing.T) {
	// (a <-> b) & (b xor c) & (a | c)
	a, b, c := logic.V(1), logic.V(2), logic.V(3)
	f := logic.And(logic.Iff(a, b), logic.Xor(b, c), logic.Or(a, c))
	pool := logic.NewPool()
	cnf := logic.ToCNF(f, pool)
	s := New()
	s.AddCNF(cnf)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	env := map[logic.Var]bool{1: s.Value(1), 2: s.Value(2), 3: s.Value(3)}
	if !f.Eval(env) {
		t.Errorf("model %v does not satisfy the original formula", env)
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard instance with a tiny budget should return Unknown.
	n := 8
	s := New()
	s.SetBudget(Budget{MaxConflicts: 1})
	v := func(p, h int) logic.Lit { return logic.Lit(p*n + h + 1) }
	for p := 0; p <= n; p++ {
		cl := make([]logic.Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = v(p, h)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	got := s.Solve()
	if got != Unknown && got != Unsat {
		t.Fatalf("got %v, want Unknown (or fast Unsat)", got)
	}
}

func TestStats(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1, 2)
	s.AddClause(1, -2)
	s.Solve()
	st := s.Stats()
	if st.Vars != 2 {
		t.Errorf("Vars = %d, want 2", st.Vars)
	}
	if st.Clauses != 3 {
		t.Errorf("Clauses = %d, want 3", st.Clauses)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("Status.String mismatch")
	}
}

func TestPropertySolverAgreesWithEval(t *testing.T) {
	// Random formulas through Tseitin: the solver's verdict must match
	// brute-force satisfiability of the formula.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 3 + rng.Intn(4)
		cls := genRandom3SAT(rng, nvars, nvars*4)
		s := New()
		for _, cl := range cls {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := bruteForceSat(cls, nvars)
		return (got == Sat) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
