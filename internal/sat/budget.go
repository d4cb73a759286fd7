package sat

import (
	"context"
	"errors"
	"fmt"

	"llhsc/internal/logic"
)

// Budget bounds the search resources of a solver. The zero value
// imposes no limits. A Solve that stops because a limit was hit
// returns Unknown and records a *LimitError retrievable via LastLimit
// (SolveContext returns it directly). Time and cancellation are not
// budgets: they come from the context given to SolveContext.
type Budget struct {
	// MaxConflicts stops the search once the solver has met this many
	// conflicts since SetBudget installed the budget, counted across
	// every Solve in between (0 = unlimited). A lifted check that asks
	// many queries of one solver therefore spends one cap, not one per
	// query.
	MaxConflicts uint64
	// MaxLearntLits caps the total number of literals retained across
	// learnt clauses — a proxy for the learnt-database memory footprint
	// (0 = unlimited). Unlike clause-DB reduction, hitting this cap
	// stops the search instead of shrinking the database, because a
	// search that keeps exceeding the cap is not converging within the
	// caller's memory budget.
	MaxLearntLits int
}

// limitCheckInterval is how many propagations pass between polls of
// the context's Done channel. Must be a power of two. Cancellation
// latency is bounded by the time the solver needs for that many
// propagations (microseconds to low milliseconds), never by the total
// search time.
const limitCheckInterval = 2048

// Stop reasons reported in LimitError.Reason.
const (
	StopConflicts = "conflicts"
	StopMemory    = "learnt-memory"
)

// LimitError is the typed error explaining an Unknown result that a
// Budget caused: the search ran out of a resource, not out of time and
// not because a decision procedure failed.
type LimitError struct {
	// Reason is one of the Stop* constants.
	Reason string
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sat: solve stopped: %s budget exhausted", e.Reason)
}

// errDone marks a search stopped because the context of SolveContext
// was done; SolveContext reports ctx.Err() in its place.
var errDone = errors.New("sat: context done")

// SetBudget installs the budget and starts its conflict count afresh.
// It must not be called while a Solve is running.
func (s *Solver) SetBudget(b Budget) {
	s.budget = b
	s.confLimit = 0
	if b.MaxConflicts > 0 {
		s.confLimit = s.stats.Conflicts + b.MaxConflicts
	}
}

// LastLimit returns the budget limit that stopped the most recent
// Solve, or nil if it ran to completion or its context stopped it.
func (s *Solver) LastLimit() *LimitError {
	lim, _ := s.stopped.(*LimitError)
	return lim
}

// SolveContext runs Solve until ctx is done. On a budget stop it
// returns Unknown and the *LimitError; when ctx stopped the search it
// returns Unknown and ctx.Err().
func (s *Solver) SolveContext(ctx context.Context, assumptions ...logic.Lit) (Status, error) {
	s.done = ctx.Done()
	st := s.Solve(assumptions...)
	s.done = nil
	switch {
	case st != Unknown:
		return st, nil
	case s.stopped == errDone:
		return Unknown, ctx.Err()
	default:
		return Unknown, s.stopped
	}
}

// pollDone reports errDone once the running SolveContext's context is
// done. It is called every limitCheckInterval propagations and before
// each search starts.
func (s *Solver) pollDone() error {
	select {
	case <-s.done:
		return errDone
	default:
		return nil
	}
}
