// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the style of MiniSat: two-watched-literal propagation,
// VSIDS variable ordering with phase saving, first-UIP conflict
// analysis with clause minimization, Luby restarts, activity-based
// learnt-clause deletion, and incremental solving under assumptions
// with failed-assumption extraction.
//
// The solver is the execution engine for every constraint family in
// llhsc: feature-model analyses, schema-derived syntactic axioms, and
// the bit-blasted bit-vector semantics checks (see internal/smt) all
// reduce to CNF solved here. The paper uses Z3, which decides the same
// fragment by bit-blasting to SAT — this package is the substituted
// back-end (DESIGN.md §2).
package sat

import (
	"fmt"
	"slices"
	"sort"

	"llhsc/internal/logic"
)

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	// Sat means a satisfying assignment was found; Model/Value are valid.
	Sat Status = iota + 1
	// Unsat means the clauses (under the given assumptions, if any)
	// are unsatisfiable. If assumptions were given, FailedAssumptions
	// returns a subset sufficient for unsatisfiability.
	Unsat
	// Unknown means the solver stopped before reaching a conclusion
	// (budget exhausted).
	Unknown
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stats reports cumulative solver statistics. The counter fields
// (Decisions, Propagations, Conflicts, Restarts) accumulate across
// Solve calls and are never reset: SetBudget fixes the conflict cap as
// an absolute stopping point (stats.Conflicts + Budget.MaxConflicts,
// the confLimit field), so taking snapshots between calls never
// perturbs the limit arithmetic — see TestStatsDeltaDoesNotPerturbBudget.
// Per-call numbers come from Sub over two snapshots.
type Stats struct {
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learnts      int // currently retained learnt clauses
	Clauses      int // problem clauses
	Vars         int
}

// Sub returns the per-call delta between this snapshot and an earlier
// one: the cumulative counters are subtracted, while the point-in-time
// gauges (Learnts, Clauses, Vars) keep their current values.
func (st Stats) Sub(prev Stats) Stats {
	return Stats{
		Decisions:    st.Decisions - prev.Decisions,
		Propagations: st.Propagations - prev.Propagations,
		Conflicts:    st.Conflicts - prev.Conflicts,
		Restarts:     st.Restarts - prev.Restarts,
		Learnts:      st.Learnts,
		Clauses:      st.Clauses,
		Vars:         st.Vars,
	}
}

// Add returns the aggregate of two stats — used to sum the work of the
// many short-lived solvers one pipeline run creates. Counters and
// gauges are both summed; for gauges the result reads as "total across
// solvers", not the state of any one instance.
func (st Stats) Add(other Stats) Stats {
	return Stats{
		Decisions:    st.Decisions + other.Decisions,
		Propagations: st.Propagations + other.Propagations,
		Conflicts:    st.Conflicts + other.Conflicts,
		Restarts:     st.Restarts + other.Restarts,
		Learnts:      st.Learnts + other.Learnts,
		Clauses:      st.Clauses + other.Clauses,
		Vars:         st.Vars + other.Vars,
	}
}

// internal literal: v<<1 | sign, sign==1 means negated. Variables 0-based.
type ilit uint32

const litUndef = ilit(^uint32(0))

func mkILit(v int, neg bool) ilit {
	l := ilit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l ilit) vari() int  { return int(l >> 1) }
func (l ilit) neg() ilit  { return l ^ 1 }
func (l ilit) sign() bool { return l&1 == 1 }
func (l ilit) index() int { return int(l) }
func fromLogic(l logic.Lit) ilit {
	return mkILit(int(l.Var())-1, !l.Positive())
}
func toLogic(l ilit) logic.Lit {
	v := logic.Lit(l.vari() + 1)
	if l.sign() {
		return -v
	}
	return v
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits    []ilit
	act     float64
	learnt  bool
	deleted bool
	locked  bool // transient reduceDB mark: clause is a reason right now
}

type watcher struct {
	c       *clause
	blocker ilit
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New.
type Solver struct {
	// clause database
	clauses []*clause // problem clauses
	learnts []*clause // learnt clauses

	watches [][]watcher // indexed by ilit

	// assignment
	assigns  []lbool // per var
	level    []int   // per var
	reason   []*clause
	polarity []bool // saved phase: true = last value was false (sign)
	noSaving bool   // disable phase saving (ablation; see SetPhaseSaving)
	trail    []ilit
	trailLim []int
	qhead    int

	// VSIDS
	activity []float64
	varInc   float64
	order    *varHeap

	// clause activity
	claInc float64

	// analyze temporaries
	seen        []bool
	addTmp      []ilit // AddClause normalization scratch
	analyzeBuf  []ilit // analyze learnt-clause scratch
	analyzeOrig []ilit // analyze pre-minimization copy scratch

	// arena-backed clause storage (arena.go)
	arena clauseArena

	// incremental state
	assumptions []ilit
	failed      []logic.Lit
	model       []lbool
	okay        bool // false once a top-level contradiction is found

	// learnt DB management
	maxLearnts   float64
	learntGrowth float64
	learntLits   int // total literals across retained learnt clauses

	// resource budget state (budget.go)
	budget    Budget
	confLimit uint64          // absolute stats.Conflicts value to stop at (0 = none)
	done      <-chan struct{} // the running SolveContext's ctx.Done()
	stopped   error           // why the running Solve stopped early: a *LimitError or errDone

	stats Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:       1.0,
		claInc:       1.0,
		okay:         true,
		learntGrowth: 1.1,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable and returns it (1-based, as a
// logic.Var).
func (s *Solver) NewVar() logic.Var {
	s.addVarsUpTo(len(s.assigns) + 1)
	return logic.Var(len(s.assigns))
}

func (s *Solver) addVarsUpTo(n int) {
	if grow := n - len(s.assigns); grow > 0 && n > cap(s.assigns) {
		s.assigns = slices.Grow(s.assigns, grow)
		s.level = slices.Grow(s.level, grow)
		s.reason = slices.Grow(s.reason, grow)
		s.polarity = slices.Grow(s.polarity, grow)
		s.activity = slices.Grow(s.activity, grow)
		s.seen = slices.Grow(s.seen, grow)
		s.watches = slices.Grow(s.watches, 2*grow)
		s.order.reserve(n)
	}
	for len(s.assigns) < n {
		s.assigns = append(s.assigns, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.polarity = append(s.polarity, true) // default phase: false
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
		s.order.insert(len(s.assigns) - 1)
	}
	s.stats.Vars = len(s.assigns)
}

// AddCNF adds all clauses of the CNF, allocating variables as needed.
func (s *Solver) AddCNF(c *logic.CNF) {
	s.addVarsUpTo(c.NumVars)
	for _, cl := range c.Clauses {
		s.AddClause(cl...)
	}
}

// AddClauses adds the clauses of a DIMACS-style arena — literals
// written back to back, each clause terminated by a 0 — over variables
// 1..numVars, which are allocated up front. It returns false once the
// solver is unsatisfiable at the top level.
func (s *Solver) AddClauses(numVars int, arena []logic.Lit) bool {
	s.addVarsUpTo(numVars)
	for start, i := 0, 0; i < len(arena); i++ {
		if arena[i] == 0 {
			if !s.AddClause(arena[start:i]...) {
				return false
			}
			start = i + 1
		}
	}
	return s.okay
}

// AddClause adds a clause over logic literals, allocating variables as
// needed. It returns false if the solver is already in an
// unsatisfiable state at the top level (including via this clause).
// Clauses may be added between Solve calls; the solver resets its
// decision stack automatically.
func (s *Solver) AddClause(lits ...logic.Lit) bool {
	if !s.okay {
		return false
	}
	s.cancelUntil(0)
	// normalize: sort, dedupe, drop false lits, detect tautology.
	// The scratch buffer is reused across calls; the literals that
	// survive are copied into the arena below, so nothing here escapes.
	tmp := s.addTmp[:0]
	defer func() { s.addTmp = tmp[:0] }()
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal in clause")
		}
		il := fromLogic(l)
		s.addVarsUpTo(il.vari() + 1)
		tmp = append(tmp, il)
	}
	slices.Sort(tmp)
	out := tmp[:0]
	var prev = litUndef
	for _, il := range tmp {
		if il == prev {
			continue // duplicate
		}
		if prev != litUndef && il == prev.neg() {
			return true // tautology: p | !p
		}
		switch s.litValue(il) {
		case lTrue:
			if s.level[il.vari()] == 0 {
				return true // satisfied at top level
			}
		case lFalse:
			if s.level[il.vari()] == 0 {
				prev = il
				continue // falsified at top level: drop
			}
		}
		out = append(out, il)
		prev = il
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.okay = false
			return false
		}
		return true
	}
	c := s.arena.newClause(out, false, 0)
	s.clauses = append(s.clauses, c)
	s.stats.Clauses = len(s.clauses)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	w0 := c.lits[0].neg()
	w1 := c.lits[1].neg()
	s.watches[w0.index()] = append(s.watches[w0.index()], watcher{c, c.lits[1]})
	s.watches[w1.index()] = append(s.watches[w1.index()], watcher{c, c.lits[0]})
}

func (s *Solver) litValue(l ilit) lbool {
	v := s.assigns[l.vari()]
	if v == lUndef {
		return lUndef
	}
	if l.sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) uncheckedEnqueue(l ilit, from *clause) {
	v := l.vari()
	if l.sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting
// clause, or nil if no conflict was found.
func (s *Solver) propagate() *clause {
	var conflict *clause
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.stats.Propagations++
		if s.stats.Propagations%limitCheckInterval == 0 && s.stopped == nil {
			s.stopped = s.pollDone()
		}
		ws := s.watches[p.index()]
		i, j := 0, 0
	nextWatcher:
		for i < len(ws) {
			w := ws[i]
			if w.c.deleted {
				i++
				continue // drop deleted clause from the list
			}
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				j++
				i++
				continue
			}
			c := w.c
			falseLit := p.neg()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			i++
			first := c.lits[0]
			nw := watcher{c, first}
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = nw
				j++
				continue
			}
			// look for a new literal to watch
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nl := c.lits[1].neg()
					s.watches[nl.index()] = append(s.watches[nl.index()], nw)
					continue nextWatcher
				}
			}
			// clause is unit or conflicting under first
			ws[j] = nw
			j++
			if s.litValue(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
				for i < len(ws) {
					ws[j] = ws[i]
					j++
					i++
				}
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p.index()] = ws[:j]
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.vari()
		s.polarity[v] = l.sign() // phase saving
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	if s.qhead > len(s.trail) {
		s.qhead = len(s.trail)
	}
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) varDecay() { s.varInc /= 0.95 }

func (s *Solver) claBump(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecay() { s.claInc /= 0.999 }

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict *clause) ([]ilit, int) {
	// The returned slice aliases reusable scratch; the caller must copy
	// it (search does, into the clause arena) before the next conflict.
	learnt := append(s.analyzeBuf[:0], litUndef) // slot 0 for the asserting literal
	counter := 0
	p := litUndef
	index := len(s.trail) - 1

	c := conflict
	for {
		if c.learnt {
			s.claBump(c)
		}
		start := 0
		if p != litUndef {
			start = 1 // c.lits[0] == p for reason clauses
		}
		for k := start; k < len(c.lits); k++ {
			q := c.lits[k]
			v := q.vari()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.varBump(v)
			s.seen[v] = true
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[index].vari()] {
			index--
		}
		p = s.trail[index]
		index--
		v := p.vari()
		c = s.reason[v]
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.neg()

	// clause minimization: drop literals implied by the rest.
	s.analyzeBuf = learnt[:0]
	orig := append(s.analyzeOrig[:0], learnt...)
	s.analyzeOrig = orig[:0]
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	kept := learnt[:j]

	// compute backtrack level; move the max-level literal to slot 1.
	btLevel := 0
	if len(kept) > 1 {
		maxI := 1
		for i := 2; i < len(kept); i++ {
			if s.level[kept[i].vari()] > s.level[kept[maxI].vari()] {
				maxI = i
			}
		}
		kept[1], kept[maxI] = kept[maxI], kept[1]
		btLevel = s.level[kept[1].vari()]
	}

	// clear seen flags for every literal that was marked, including
	// those dropped by minimization (orig preserves them).
	for _, l := range orig {
		s.seen[l.vari()] = false
	}
	return kept, btLevel
}

// redundant reports whether learnt literal l is implied by the other
// marked literals: its reason clause must exist and every antecedent
// must be marked or at level 0. (The non-recursive "basic" form of
// MiniSat's minimization.)
func (s *Solver) redundant(l ilit) bool {
	c := s.reason[l.vari()]
	if c == nil {
		return false
	}
	for _, q := range c.lits[1:] {
		if !s.seen[q.vari()] && s.level[q.vari()] > 0 {
			return false
		}
	}
	return true
}

// analyzeFinal computes the subset of assumptions responsible for
// forcing literal p false, storing the result (as original assumption
// literals) in s.failed. p is the assumption literal that failed.
func (s *Solver) analyzeFinal(p ilit) {
	s.failed = s.failed[:0]
	s.failed = append(s.failed, toLogic(p))
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.vari()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		l := s.trail[i]
		v := l.vari()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == nil {
			// decision: under assumption-driven search all decisions
			// below the failing point are assumptions.
			s.failed = append(s.failed, toLogic(l))
		} else {
			for _, q := range s.reason[v].lits[1:] {
				if s.level[q.vari()] > 0 {
					s.seen[q.vari()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.vari()] = false
}

func (s *Solver) pickBranchLit() ilit {
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return litUndef
		}
		if s.assigns[v] == lUndef {
			if s.noSaving {
				return mkILit(v, true) // static default phase: false
			}
			return mkILit(v, s.polarity[v])
		}
	}
}

// SetPhaseSaving enables or disables phase saving — branching on each
// variable's last assigned polarity rather than the static
// negative-first default. On by default. Repeated related queries (the
// assumption solves of the lifted session, DESIGN.md §14) converge far
// faster with it: the second solve re-decides the previous
// model instead of re-deriving it through the same conflicts. The knob
// exists for A/B measurement; production callers should leave it on.
func (s *Solver) SetPhaseSaving(on bool) { s.noSaving = !on }

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i uint64) uint64 {
	// Find the finite subsequence containing index i.
	var k uint64 = 1
	for (1<<k)-1 < i {
		k++
	}
	for (1<<k)-1 != i {
		i -= (1 << (k - 1)) - 1
		k = 1
		for (1<<k)-1 < i {
			k++
		}
	}
	return 1 << (k - 1)
}

// reduceDB removes roughly half of the learnt clauses, preferring
// low-activity ones; clauses that are reasons for current assignments
// and binary clauses are kept.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].act < s.learnts[j].act
	})
	// Mark reason clauses in place instead of building a set — reduceDB
	// runs on the search hot path and the transient map was its only
	// allocation.
	for _, r := range s.reason {
		if r != nil {
			r.locked = true
		}
	}
	keepFrom := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		if i < keepFrom && len(c.lits) > 2 && !c.locked {
			c.deleted = true // lazily removed from watch lists
			s.learntLits -= len(c.lits)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	for _, r := range s.reason {
		if r != nil {
			r.locked = false
		}
	}
}

// Solve determines satisfiability of the clause set under the given
// assumptions (which may be empty). When the Budget installed by
// SetBudget runs out, Solve returns Unknown and LastLimit reports
// which limit; the conflict cap keeps counting across Solve calls
// until the next SetBudget.
func (s *Solver) Solve(assumptions ...logic.Lit) Status {
	s.stopped = nil
	if !s.okay {
		s.failed = nil
		return Unsat
	}
	s.cancelUntil(0)
	s.assumptions = s.assumptions[:0]
	for _, a := range assumptions {
		il := fromLogic(a)
		s.addVarsUpTo(il.vari() + 1)
		s.assumptions = append(s.assumptions, il)
	}
	s.failed = nil

	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses))/3 + 100
	}

	if s.stopped = s.pollDone(); s.stopped != nil {
		return Unknown // canceled before the search started
	}
	if s.confLimit > 0 && s.stats.Conflicts >= s.confLimit {
		s.stopped = &LimitError{Reason: StopConflicts}
		return Unknown // earlier solves spent the cap
	}

	var restartN uint64
	for {
		restartN++
		budget := luby(restartN) * 100
		st := s.search(budget)
		if st != Unknown {
			return st
		}
		if s.stopped != nil {
			s.cancelUntil(0)
			return Unknown
		}
		s.stats.Restarts++
		s.maxLearnts *= s.learntGrowth
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result is found, budget conflicts occur
// (restart boundary), or a resource limit or the context stops it
// (s.stopped set).
func (s *Solver) search(budget uint64) Status {
	var conflicts uint64
	for {
		conflict := s.propagate()
		if s.stopped != nil {
			return Unknown // context done, observed mid-propagation
		}
		if conflict != nil {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			// Never backtrack past the assumptions.
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				if s.decisionLevel() > 0 {
					// unit learnt while assumptions are still decided:
					// go all the way down so it persists at level 0.
					s.cancelUntil(0)
				}
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := s.arena.newClause(learnt, true, s.claInc)
				s.learnts = append(s.learnts, c)
				s.learntLits += len(c.lits)
				s.stats.Learnts = len(s.learnts)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varDecay()
			s.claDecay()
			if s.confLimit > 0 && s.stats.Conflicts >= s.confLimit {
				s.stopped = &LimitError{Reason: StopConflicts}
				return Unknown
			}
			if s.budget.MaxLearntLits > 0 && s.learntLits > s.budget.MaxLearntLits {
				s.stopped = &LimitError{Reason: StopMemory}
				return Unknown
			}
			if conflicts >= budget {
				return Unknown
			}
			continue
		}

		if float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}

		// decide: assumptions first
		next := litUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level for satisfied assumption
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			default:
				next = p
			}
			if next != litUndef {
				break
			}
		}
		if next == litUndef {
			s.stats.Decisions++
			next = s.pickBranchLit()
			if next == litUndef {
				s.extractModel()
				return Sat
			}
		} else {
			s.stats.Decisions++
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, nil)
	}
}

func (s *Solver) extractModel() {
	if cap(s.model) < len(s.assigns) {
		s.model = make([]lbool, len(s.assigns))
	}
	s.model = s.model[:len(s.assigns)]
	copy(s.model, s.assigns)
}

// Value returns the model value of variable v after a Sat result.
// Unassigned (don't-care) variables report false.
func (s *Solver) Value(v logic.Var) bool {
	i := int(v) - 1
	if i < 0 || i >= len(s.model) {
		return false
	}
	return s.model[i] == lTrue
}

// Model returns the satisfying assignment as a map after a Sat result.
func (s *Solver) Model() map[logic.Var]bool {
	m := make(map[logic.Var]bool, len(s.model))
	for i, val := range s.model {
		m[logic.Var(i+1)] = val == lTrue
	}
	return m
}

// FailedAssumptions returns, after an Unsat result of a Solve call with
// assumptions, a subset of the assumptions that is jointly
// unsatisfiable with the clause set. After an Unsat result without
// assumptions it returns nil.
func (s *Solver) FailedAssumptions() []logic.Lit {
	return append([]logic.Lit(nil), s.failed...)
}

// Stats returns a copy of the cumulative statistics — a snapshot that
// later solver activity cannot mutate. Snapshot before and after a
// Solve and use Stats.Sub for the per-call delta; snapshotting never
// affects the conflict-budget arithmetic (see the Stats doc).
func (s *Solver) Stats() Stats {
	st := s.stats
	st.Learnts = len(s.learnts)
	st.Clauses = len(s.clauses)
	return st
}
