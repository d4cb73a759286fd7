package sat

import "testing"

// TestStatsDeltaDoesNotPerturbBudget is the regression guard for the
// confLimit arithmetic: SetBudget fixes the conflict cap as an absolute
// target relative to the cumulative stats.Conflicts (budget.go), so the
// counter never resets and snapshotting stats between solves must not
// change what the cap allows: the solves after SetBudget share one
// MaxConflicts, and the next SetBudget grants a whole one again.
func TestStatsDeltaDoesNotPerturbBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9)
	s.SetBudget(Budget{MaxConflicts: 5})

	before := s.Stats()
	if got := s.Solve(); got != Unknown {
		t.Fatalf("first Solve = %v, want Unknown", got)
	}
	mid := s.Stats()
	if first := mid.Sub(before); first.Conflicts != 5 {
		t.Fatalf("first call used %d conflicts, want the whole cap of 5", first.Conflicts)
	}

	// Second call on the same solver: the cap is spent, so it stops
	// before it meets another conflict.
	if got := s.Solve(); got != Unknown {
		t.Fatalf("second Solve = %v, want Unknown", got)
	}
	if second := s.Stats().Sub(mid); second.Conflicts != 0 {
		t.Fatalf("second call used %d conflicts, want 0: the cap is per budget, not per solve", second.Conflicts)
	}
	if lim := s.LastLimit(); lim == nil || lim.Reason != StopConflicts {
		t.Fatalf("LastLimit = %+v, want reason %q", lim, StopConflicts)
	}

	// A new SetBudget starts the count from the current total.
	s.SetBudget(Budget{MaxConflicts: 5})
	again := s.Stats()
	if got := s.Solve(); got != Unknown {
		t.Fatalf("third Solve = %v, want Unknown", got)
	}
	if third := s.Stats().Sub(again); third.Conflicts != 5 {
		t.Fatalf("third call used %d conflicts, want the whole new cap of 5", third.Conflicts)
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	prev := Stats{Decisions: 10, Propagations: 100, Conflicts: 5, Restarts: 1, Learnts: 4, Clauses: 9, Vars: 3}
	cur := Stats{Decisions: 25, Propagations: 180, Conflicts: 11, Restarts: 2, Learnts: 6, Clauses: 9, Vars: 3}
	d := cur.Sub(prev)
	if d.Decisions != 15 || d.Propagations != 80 || d.Conflicts != 6 || d.Restarts != 1 {
		t.Fatalf("Sub counters wrong: %+v", d)
	}
	if d.Learnts != 6 || d.Clauses != 9 || d.Vars != 3 {
		t.Fatalf("Sub must keep current gauge values: %+v", d)
	}
	sum := prev.Add(cur)
	if sum.Conflicts != 16 || sum.Decisions != 35 || sum.Vars != 6 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

// TestStatsReturnsCopy pins the snapshot semantics satellite: mutating
// the returned value must not reach the solver.
func TestStatsReturnsCopy(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.Solve()
	st := s.Stats()
	st.Conflicts = 999999
	st.Vars = -1
	if got := s.Stats(); got.Conflicts == 999999 || got.Vars == -1 {
		t.Fatalf("Stats returned a live reference: %+v", got)
	}
}
