// Per-run observability for the pipeline: RunStats is the solver/cache
// work summary embedded in every Report (and serialized as the "stats"
// block of a /check response), and PipelineMetrics is the registry-
// backed counterpart that accumulates the same numbers across runs for
// /metrics exposition.
package core

import (
	"llhsc/internal/constraints"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
)

// FamilyStats summarizes the solver work one checker family performed
// during a run, aggregated across every product tree it checked.
type FamilyStats struct {
	// Checks is the number of trees (or, for allocation, configuration
	// sets) this family examined.
	Checks int `json:"checks"`
	// Pairs / PairsPruned are the semantic sweep counters: candidate
	// pairs decided, and naive n·(n-1)/2 pairs the prefilter discarded
	// before any decision (for interrupts, Pairs counts the claim pairs
	// compared; for memreserve, the reserve pairs).
	Pairs       int `json:"pairs,omitempty"`
	PairsPruned int `json:"pairsPruned,omitempty"`
	// SolverCalls counts solver invocations: the lifted session's
	// assumption solves. The per-tree families build no solver.
	SolverCalls int `json:"solverCalls,omitempty"`
	// WordDecided counts decisions made by word arithmetic without any
	// solver involvement (DESIGN.md §13): region pairs, interrupt claim
	// pairs, reserve containments and reserve pairs.
	WordDecided int `json:"wordDecided,omitempty"`
	// SAT-solver work underneath the family's queries (allocation and
	// lifted).
	Conflicts    uint64 `json:"conflicts,omitempty"`
	Propagations uint64 `json:"propagations,omitempty"`
	Restarts     uint64 `json:"restarts,omitempty"`
}

// add returns the field-wise sum; families accumulate across products.
func (fs FamilyStats) add(other FamilyStats) FamilyStats {
	fs.Checks += other.Checks
	fs.Pairs += other.Pairs
	fs.PairsPruned += other.PairsPruned
	fs.SolverCalls += other.SolverCalls
	fs.WordDecided += other.WordDecided
	fs.Conflicts += other.Conflicts
	fs.Propagations += other.Propagations
	fs.Restarts += other.Restarts
	return fs
}

// familyStatsFrom converts a checker's SemanticStats sink into the
// report shape, counting one checked tree.
func familyStatsFrom(st constraints.SemanticStats) FamilyStats {
	return FamilyStats{
		Checks:      1,
		Pairs:       st.Pairs,
		PairsPruned: st.PairsPruned,
		SolverCalls: st.SolverCalls,
		WordDecided: st.WordDecided,
	}
}

// familyStatsFromSAT converts a raw SAT-stats delta (the allocation
// family, which has no SMT layer).
func familyStatsFromSAT(d sat.Stats) FamilyStats {
	return FamilyStats{
		Checks:       1,
		Conflicts:    d.Conflicts,
		Propagations: d.Propagations,
		Restarts:     d.Restarts,
	}
}

// familyStatsFromLifted converts the lifted checker's counters into the
// per-family report shape, under the "lifted" family name: its
// assumption solves are the solver calls, and the word tier's share is
// reported like the semantic sweep's.
func familyStatsFromLifted(st constraints.LiftedStats) FamilyStats {
	return FamilyStats{
		Checks:       1,
		SolverCalls:  st.Queries,
		WordDecided:  st.WordDecided,
		Conflicts:    st.Solver.Conflicts,
		Propagations: st.Solver.Propagations,
		Restarts:     st.Solver.Restarts,
	}
}

// LiftedRunStats summarizes a lifted (ModeLifted) run's family-based
// solver work; RunStats.Lifted is nil for enumerative runs and for
// lifted runs answered entirely from the check cache.
type LiftedRunStats struct {
	// Queries is the number of assumption solves the shared incremental
	// session answered.
	Queries int `json:"queries"`
	// Pruned counts candidate violations (and coverage worlds) the
	// session proved no valid configuration can exhibit.
	Pruned int `json:"pruned"`
	// WordDecided counts region pairs the word-level tier settled
	// without the session.
	WordDecided int `json:"wordDecided,omitempty"`
	// Regions / Contexts / Worlds describe the merged tree's guarded
	// variant space (see constraints.LiftedStats).
	Regions  int `json:"regions,omitempty"`
	Contexts int `json:"contexts,omitempty"`
	Worlds   int `json:"worlds,omitempty"`
	// Findings is the number of reachable violations reported.
	Findings int `json:"findings"`
	// Sessions counts solver sessions opened — one per uncached lifted
	// run. Queries/Sessions is the session-reuse ratio the mode exists
	// for: the enumerative baseline opens a fresh solver per product
	// per family.
	Sessions int `json:"sessions"`
}

// liftedRunStatsFrom converts one lifted check's counters, counting the
// session it opened.
func liftedRunStatsFrom(st constraints.LiftedStats) LiftedRunStats {
	return LiftedRunStats{
		Queries:     st.Queries,
		Pruned:      st.Pruned,
		WordDecided: st.WordDecided,
		Regions:     st.Regions,
		Contexts:    st.Contexts,
		Worlds:      st.Worlds,
		Findings:    st.Findings,
		Sessions:    1,
	}
}

// add returns the field-wise sum.
func (ls LiftedRunStats) add(other LiftedRunStats) LiftedRunStats {
	ls.Queries += other.Queries
	ls.Pruned += other.Pruned
	ls.WordDecided += other.WordDecided
	ls.Regions += other.Regions
	ls.Contexts += other.Contexts
	ls.Worlds += other.Worlds
	ls.Findings += other.Findings
	ls.Sessions += other.Sessions
	return ls
}

// RunStats is the per-run work summary carried by Report.Stats. All
// counters are totals for one RunContext call; per-family numbers are
// aggregated across every product tree. Trees answered from the check
// cache contribute CacheHits but no family work (nothing was solved).
type RunStats struct {
	Families    map[string]FamilyStats `json:"families,omitempty"`
	CacheHits   int                    `json:"cacheHits"`
	CacheMisses int                    `json:"cacheMisses"`
	// Lifted is the lifted session's work summary (ModeLifted runs that
	// actually solved; nil otherwise).
	Lifted *LiftedRunStats `json:"lifted,omitempty"`
}

// addFamily folds one family's contribution into the run totals.
func (st *runState) addFamily(name string, fs FamilyStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stats.Families == nil {
		st.stats.Families = make(map[string]FamilyStats)
	}
	st.stats.Families[name] = st.stats.Families[name].add(fs)
}

// addLifted folds one lifted check's contribution into the run totals.
func (st *runState) addLifted(ls LiftedRunStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stats.Lifted == nil {
		st.stats.Lifted = &LiftedRunStats{}
	}
	*st.stats.Lifted = st.stats.Lifted.add(ls)
}

// addCache records one cache lookup outcome.
func (st *runState) addCache(hit bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if hit {
		st.stats.CacheHits++
	} else {
		st.stats.CacheMisses++
	}
}

// snapshot copies the accumulated stats (workers have drained by the
// time the report is assembled, but the lock keeps -race honest).
func (st *runState) snapshot() RunStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.stats
	out.Families = make(map[string]FamilyStats, len(st.stats.Families))
	for k, v := range st.stats.Families {
		out.Families[k] = v
	}
	if st.stats.Lifted != nil {
		l := *st.stats.Lifted
		out.Lifted = &l
	}
	return out
}

// PipelineMetrics accumulates RunStats across runs on an obs.Registry,
// under the llhsc_sat_*, llhsc_constraints_*, llhsc_lifted_* and
// llhsc_check_seconds families. One instance may be shared by any number
// of Pipelines (the server shares one across requests); observation is
// a handful of atomic adds per run.
type PipelineMetrics struct {
	satConflicts    *obs.CounterVec
	satPropagations *obs.CounterVec
	satRestarts     *obs.CounterVec
	solverCalls     *obs.CounterVec
	pairs           *obs.CounterVec
	pairsPruned     *obs.Counter
	wordDecided     *obs.CounterVec
	runs            *obs.Counter
	checkSeconds    *obs.HistogramVec

	// Lifted-mode counters (DESIGN.md §14): total lifted queries,
	// configurations pruned as unreachable, and solver sessions opened;
	// llhsc_lifted_session_reuse derives queries/session at scrape time.
	liftedQueries  *obs.Counter
	liftedPruned   *obs.Counter
	liftedSessions *obs.Counter
}

// NewPipelineMetrics registers the pipeline's metric families on reg.
// Register once per registry: duplicate registration panics.
func NewPipelineMetrics(reg *obs.Registry) *PipelineMetrics {
	m := &PipelineMetrics{
		satConflicts: reg.NewCounterVec("llhsc_sat_conflicts_total",
			"CDCL conflicts, by checker family.", "family"),
		satPropagations: reg.NewCounterVec("llhsc_sat_propagations_total",
			"Unit propagations, by checker family.", "family"),
		satRestarts: reg.NewCounterVec("llhsc_sat_restarts_total",
			"Solver restarts, by checker family.", "family"),
		solverCalls: reg.NewCounterVec("llhsc_constraints_solver_calls_total",
			"SMT check invocations, by checker family.", "family"),
		pairs: reg.NewCounterVec("llhsc_constraints_pairs_total",
			"Candidate pairs submitted to the solver, by checker family.", "family"),
		pairsPruned: reg.NewCounter("llhsc_constraints_pairs_pruned_total",
			"Naive region pairs the sweep prefilter discarded before reaching the solver."),
		wordDecided: reg.NewCounterVec("llhsc_constraints_word_decided_total",
			"Region pairs decided by the word-level interval tier, no solver involved.", "family"),
		runs: reg.NewCounter("llhsc_core_runs_total",
			"Completed pipeline runs (including runs that found violations)."),
		liftedQueries: reg.NewCounter("llhsc_lifted_queries_total",
			"Assumption solves issued against lifted (family-based) solver sessions."),
		liftedPruned: reg.NewCounter("llhsc_lifted_configs_pruned_total",
			"Candidate violations the lifted session proved unreachable by any valid configuration."),
		liftedSessions: reg.NewCounter("llhsc_lifted_sessions_total",
			"Lifted solver sessions opened (one per uncached ModeLifted run)."),
		checkSeconds: reg.NewHistogramVec("llhsc_check_seconds",
			"Per-family check latency by dominant decision tier (word/sat/lifted/none).",
			nil, "family", "tier"),
	}
	reg.Register("llhsc_lifted_session_reuse",
		"Average lifted queries discharged per solver session (the incremental-reuse ratio).",
		obs.FuncGauge(func() float64 {
			sessions := m.liftedSessions.Value()
			if sessions == 0 {
				return 0
			}
			return float64(m.liftedQueries.Value()) / float64(sessions)
		}))
	return m
}

// observeFamily records one family check's wall time under its
// dominant decision tier — the llhsc_check_seconds{family,tier}
// distribution. Nil-safe so call sites stay unconditional-looking.
func (m *PipelineMetrics) observeFamily(family, tier string, seconds float64) {
	if m == nil {
		return
	}
	m.checkSeconds.With(family, tier).Observe(seconds)
}

// familyTier names the decision tier that dominated one family check:
// "sat" if any query reached a solver, "word" if the interval tier
// decided everything, "none" for purely structural families.
func familyTier(fs FamilyStats) string {
	switch {
	case fs.SolverCalls > 0:
		return "sat"
	case fs.WordDecided > 0:
		return "word"
	default:
		return "none"
	}
}

// observe folds one run's stats into the cross-run counters.
func (m *PipelineMetrics) observe(rs RunStats) {
	for name, fs := range rs.Families {
		m.satConflicts.With(name).Add(fs.Conflicts)
		m.satPropagations.With(name).Add(fs.Propagations)
		m.satRestarts.With(name).Add(fs.Restarts)
		m.solverCalls.With(name).Add(uint64(fs.SolverCalls))
		m.pairs.With(name).Add(uint64(fs.Pairs))
		m.pairsPruned.Add(uint64(fs.PairsPruned))
		m.wordDecided.With(name).Add(uint64(fs.WordDecided))
	}
	if rs.Lifted != nil {
		m.liftedQueries.Add(uint64(rs.Lifted.Queries))
		m.liftedPruned.Add(uint64(rs.Lifted.Pruned))
		m.liftedSessions.Add(uint64(rs.Lifted.Sessions))
	}
	m.runs.Inc()
}
