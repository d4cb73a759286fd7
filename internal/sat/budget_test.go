package sat

import (
	"context"
	"errors"
	"testing"
	"time"

	"llhsc/internal/logic"
)

// pigeonhole builds the (unsatisfiable) instance placing n+1 pigeons
// into n holes — exponentially hard for resolution-based solvers, so a
// modest n keeps a CDCL search busy long enough to exercise budgets.
func pigeonhole(s *Solver, n int) {
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
}

func TestBudgetMaxConflicts(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxConflicts: 5})
	pigeonhole(s, 7)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve = %v, want Unknown", got)
	}
	lim := s.LastLimit()
	if lim == nil || lim.Reason != StopConflicts {
		t.Fatalf("LastLimit = %+v, want reason %q", lim, StopConflicts)
	}
	// a new SetBudget replaces the cap: lifting it lets the solver finish
	s.SetBudget(Budget{})
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbudgeted re-solve = %v, want Unsat", got)
	}
	if s.LastLimit() != nil {
		t.Errorf("LastLimit after completed solve = %+v, want nil", s.LastLimit())
	}
}

// TestBudgetDeadline: a context whose deadline has already passed
// stops the solve before it searches, as context.DeadlineExceeded and
// not as a budget.
func TestBudgetDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 14)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	before := s.Stats()
	st, err := s.SolveContext(ctx)
	if st != Unknown || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveContext = %v/%v, want Unknown/context.DeadlineExceeded", st, err)
	}
	var lim *LimitError
	if errors.As(err, &lim) || s.LastLimit() != nil {
		t.Fatalf("err = %v, LastLimit = %v: an expired deadline is no budget", err, s.LastLimit())
	}
	if d := s.Stats().Sub(before); d.Propagations != 0 || d.Conflicts != 0 {
		t.Errorf("expired deadline still searched: %+v", d)
	}
}

func TestBudgetMaxLearntLits(t *testing.T) {
	s := New()
	pigeonhole(s, 12) // never solved: the learnt-lits cap must fire first
	s.SetBudget(Budget{MaxLearntLits: 50})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve = %v, want Unknown", got)
	}
	if lim := s.LastLimit(); lim == nil || lim.Reason != StopMemory {
		t.Fatalf("LastLimit = %+v, want reason %q", lim, StopMemory)
	}
}

func TestSolveContextCancel(t *testing.T) {
	s := New()
	pigeonhole(s, 14)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st, err := s.SolveContext(ctx)
	elapsed := time.Since(start)
	if st != Unknown {
		t.Fatalf("SolveContext = %v, want Unknown", st)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want context.Canceled itself", err, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
	}
}

func TestSolveContextAlreadyCanceled(t *testing.T) {
	s := New()
	pigeonhole(s, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := s.SolveContext(ctx)
	if st != Unknown || !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext = %v/%v, want Unknown/context.Canceled", st, err)
	}
}

func TestSolveContextDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 14)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	st, err := s.SolveContext(ctx)
	if st != Unknown {
		t.Fatalf("SolveContext = %v, want Unknown", st)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
}

func TestSolveContextCompletes(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClause(-1)
	st, err := s.SolveContext(context.Background())
	if st != Sat || err != nil {
		t.Fatalf("SolveContext = %v/%v, want Sat/nil", st, err)
	}
	if !s.Value(2) {
		t.Error("model must set variable 2")
	}
}

// TestInterruptFromAnotherGoroutine: canceling the context from
// another goroutine stops a solve running in a third, and leaves
// nothing behind: the next solve, under a fresh context, searches
// until its own budget stops it.
func TestInterruptFromAnotherGoroutine(t *testing.T) {
	s := New()
	pigeonhole(s, 14)
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		st  Status
		err error
	}
	done := make(chan result, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	go func() {
		st, err := s.SolveContext(ctx)
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		if r.st != Unknown || r.err != context.Canceled {
			t.Fatalf("SolveContext = %v/%v, want Unknown/context.Canceled", r.st, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled solve did not return within 2s")
	}
	if lim := s.LastLimit(); lim != nil {
		t.Fatalf("LastLimit = %+v after a cancellation, want nil", lim)
	}
	s.SetBudget(Budget{MaxConflicts: 10})
	st, err := s.SolveContext(context.Background())
	var lim *LimitError
	if st != Unknown || !errors.As(err, &lim) || lim.Reason != StopConflicts {
		t.Errorf("next solve = %v/%v, want Unknown with a %q *LimitError", st, err, StopConflicts)
	}
}

// guardedPigeonhole adds pigeonhole(n) over variables from base+1 on,
// every clause switched on by the assumption g, so that one solver can
// hold several instances and each Solve(g) decides one of them.
func guardedPigeonhole(s *Solver, g logic.Lit, n, base int) {
	v := func(p, h int) logic.Lit { return logic.Lit(base + p*n + h + 1) }
	for p := 0; p <= n; p++ {
		cl := []logic.Lit{-g}
		for h := 0; h < n; h++ {
			cl = append(cl, v(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(-g, -v(p1, h), -v(p2, h))
			}
		}
	}
}

// TestConflictCapSpansSolves pins the budget contract a lifted check
// relies on: MaxConflicts counts every conflict from SetBudget on,
// across solves, and a new SetBudget starts the count again.
func TestConflictCapSpansSolves(t *testing.T) {
	const easy, hard = 1, 2 // guards of pigeonhole 4 and pigeonhole 9
	build := func() *Solver {
		s := New()
		guardedPigeonhole(s, easy, 4, 10)
		guardedPigeonhole(s, hard, 9, 100)
		return s
	}
	ref := build()
	if got := ref.Solve(easy); got != Unsat {
		t.Fatalf("unbudgeted easy solve = %v, want Unsat", got)
	}
	c1 := ref.Stats().Conflicts
	if c1 < 2 {
		t.Fatalf("easy instance took %d conflicts; the test needs at least 2", c1)
	}
	const rest = 3
	limit := c1 + rest

	s := build()
	s.SetBudget(Budget{MaxConflicts: limit})
	if got := s.Solve(easy); got != Unsat || s.Stats().Conflicts != c1 {
		t.Fatalf("budgeted easy solve = %v after %d conflicts, want Unsat after %d",
			got, s.Stats().Conflicts, c1)
	}
	mid := s.Stats()
	if got := s.Solve(hard); got != Unknown {
		t.Fatalf("hard solve = %v, want Unknown", got)
	}
	if lim := s.LastLimit(); lim == nil || lim.Reason != StopConflicts {
		t.Fatalf("LastLimit = %+v, want reason %q", lim, StopConflicts)
	}
	if d := s.Stats().Sub(mid).Conflicts; d != rest {
		t.Fatalf("second solve spent %d conflicts, want the %d the first left of the cap", d, rest)
	}
	spent := s.Stats()
	if got := s.Solve(easy); got != Unknown || s.Stats().Conflicts != spent.Conflicts {
		t.Fatalf("solve after the cap ran out = %v after %d more conflicts, want Unknown after none",
			got, s.Stats().Sub(spent).Conflicts)
	}

	s.SetBudget(Budget{MaxConflicts: limit})
	if got := s.Solve(hard); got != Unknown {
		t.Fatalf("hard solve under a fresh budget = %v, want Unknown", got)
	}
	if d := s.Stats().Sub(spent).Conflicts; d != limit {
		t.Fatalf("fresh budget spent %d conflicts, want the whole cap %d", d, limit)
	}
}

func TestSolverReusableAfterLimitStop(t *testing.T) {
	// After a budget stop the solver must still give correct answers.
	s := New()
	pigeonhole(s, 7)
	s.SetBudget(Budget{MaxConflicts: 3})
	if got := s.Solve(); got != Unknown {
		t.Skipf("pigeonhole-7 solved within 3 conflicts (%v)", got)
	}
	s.SetBudget(Budget{})
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve after budget stop = %v, want Unsat", got)
	}
}
