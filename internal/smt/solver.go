package smt

import (
	"context"
	"fmt"
	"sync/atomic"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// Solver decides satisfiability of asserted Boolean/bit-vector/string
// terms by compiling them to CNF (bit-blasting) and running the CDCL
// solver from internal/sat.
//
// Scopes: Push/Pop create assertion frames implemented with activation
// literals, so the underlying SAT solver keeps all learnt clauses
// across scope changes (incremental solving, as the paper's Section VI
// highlights for Z3). Named assertions participate in unsat-name
// extraction: after an unsatisfiable Check, UnsatNames reports a subset
// of assertion names sufficient for the contradiction — llhsc uses this
// to trace a violation back to the delta module that caused it.
//
// Concurrency contract: a Solver and its Context are confined to one
// goroutine at a time — the blasting caches, scratch buffers and the
// term interner are all unsynchronized. Concurrent callers must build
// one Context+Solver pair per goroutine (they are cheap; this is what
// core.Pipeline's worker pool does). Mutating entry points enforce the
// contract: concurrent use panics with a diagnostic instead of
// corrupting state silently. To stop a running check from another
// goroutine, cancel the context given to CheckContext.
type Solver struct {
	ctx *Context
	sat *sat.Solver

	// busy enforces the single-goroutine contract (0 = idle).
	busy atomic.Int32

	trueLit logic.Lit

	// Scratch storage reused by the blasting gates (blast.go) to avoid
	// a per-gate slice allocation on the hot path. gateScratch holds
	// the long clause being built by andGate/orGate (sat.AddClause
	// copies, so reuse is safe); argPool recycles the argument slices
	// blastBool builds for n-ary And/Or terms; pair2 backs the
	// ubiquitous two-literal gate calls.
	gateScratch []logic.Lit
	argPool     [][]logic.Lit
	pair2       [2]logic.Lit

	// blasting caches
	bits     map[int][]logic.Lit // BV term id -> bits (LSB first)
	boolLits map[int]logic.Lit   // Bool term id -> literal
	varLits  map[string]logic.Lit
	bvVars   map[string][]logic.Lit

	// finite-domain string encoding
	strPairs map[[2]string]logic.Lit // (var name, const) -> "var == const"

	frames []logic.Lit // activation literal per frame; frames[0] is base
	named  []namedAssertion

	lastUnsatNames []string
	checks         int
}

type namedAssertion struct {
	name  string
	act   logic.Lit
	frame int
}

// NewSolver returns a solver over terms of ctx.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{
		ctx:      ctx,
		sat:      sat.New(),
		bits:     make(map[int][]logic.Lit),
		boolLits: make(map[int]logic.Lit),
		varLits:  make(map[string]logic.Lit),
		bvVars:   make(map[string][]logic.Lit),
		strPairs: make(map[[2]string]logic.Lit),
	}
	s.trueLit = s.fresh()
	s.sat.AddClause(s.trueLit)
	s.frames = []logic.Lit{s.fresh()} // base frame
	return s
}

// Context returns the term context the solver operates over.
func (s *Solver) Context() *Context { return s.ctx }

func (s *Solver) fresh() logic.Lit {
	return logic.Lit(s.sat.NewVar())
}

// enter enforces the single-goroutine contract on a mutating entry
// point; the returned func releases the guard (use: defer s.enter()()).
func (s *Solver) enter() func() {
	if !s.busy.CompareAndSwap(0, 1) {
		panic("smt: Solver used concurrently from multiple goroutines; " +
			"build one Context+Solver per goroutine (see the Solver doc)")
	}
	return func() { s.busy.Store(0) }
}

// Push opens a new assertion scope.
func (s *Solver) Push() {
	defer s.enter()()
	s.frames = append(s.frames, s.fresh())
}

// Pop discards the most recent assertion scope and every assertion made
// in it. Popping the base scope panics.
func (s *Solver) Pop() {
	defer s.enter()()
	if len(s.frames) == 1 {
		panic("smt: Pop on base scope")
	}
	act := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.sat.AddClause(act.Neg()) // permanently disable the frame's assertions
	// drop named assertions belonging to the popped frame
	kept := s.named[:0]
	for _, n := range s.named {
		if n.frame < len(s.frames) {
			kept = append(kept, n)
		}
	}
	s.named = kept
}

// NumScopes returns the current number of open scopes (0 = base only).
func (s *Solver) NumScopes() int { return len(s.frames) - 1 }

// Assert adds a Boolean term to the current scope.
func (s *Solver) Assert(t *Term) {
	defer s.enter()()
	lit := s.blastBool(t)
	frame := s.frames[len(s.frames)-1]
	s.sat.AddClause(frame.Neg(), lit)
}

// AssertNamed adds a Boolean term to the current scope under a name
// that can appear in UnsatNames after an unsatisfiable Check.
func (s *Solver) AssertNamed(name string, t *Term) {
	defer s.enter()()
	lit := s.blastBool(t)
	frame := s.frames[len(s.frames)-1]
	act := s.fresh()
	s.sat.AddClause(frame.Neg(), act.Neg(), lit)
	s.named = append(s.named, namedAssertion{name: name, act: act, frame: len(s.frames) - 1})
}

// Check decides satisfiability of the current assertion set. An
// Unknown result means a budget installed via SetBudget cut the search
// short; LastLimit explains why.
func (s *Solver) Check() sat.Status {
	defer s.enter()()
	st, _ := s.check(context.Background(), nil)
	return st
}

// CheckContext is Check under a context: the SAT search stops once ctx
// is done. On a stop it returns sat.Unknown and a non-nil error:
// ctx.Err() when the context stopped it, a *sat.LimitError when the
// budget ran out.
func (s *Solver) CheckContext(ctx context.Context) (sat.Status, error) {
	defer s.enter()()
	return s.check(ctx, nil)
}

// CheckAssuming decides satisfiability of the current assertion set
// under additional Boolean assumption terms, without changing the
// assertion set. Each assumption is blasted once — its gate clauses are
// permanent and memoized, so repeated CheckAssuming calls over the same
// terms (the semantic checker's per-pair activation literals,
// DESIGN.md §9) cost only the SAT search, not re-encoding.
func (s *Solver) CheckAssuming(assumptions ...*Term) sat.Status {
	defer s.enter()()
	st, _ := s.check(context.Background(), assumptions)
	return st
}

// CheckAssumingContext is CheckAssuming under a context, with the same
// error contract as CheckContext.
func (s *Solver) CheckAssumingContext(ctx context.Context, assumptions ...*Term) (sat.Status, error) {
	defer s.enter()()
	return s.check(ctx, assumptions)
}

func (s *Solver) check(ctx context.Context, assume []*Term) (sat.Status, error) {
	s.checks++
	assumptions := make([]logic.Lit, 0, len(s.frames)+len(s.named)+len(assume))
	assumptions = append(assumptions, s.frames...)
	for _, n := range s.named {
		assumptions = append(assumptions, n.act)
	}
	for _, t := range assume {
		assumptions = append(assumptions, s.blastBool(t))
	}
	st, err := s.sat.SolveContext(ctx, assumptions...)
	s.lastUnsatNames = nil
	if st == sat.Unsat {
		failed := make(map[logic.Lit]bool)
		for _, l := range s.sat.FailedAssumptions() {
			failed[l] = true
		}
		for _, n := range s.named {
			if failed[n.act] {
				s.lastUnsatNames = append(s.lastUnsatNames, n.name)
			}
		}
	}
	return st, err
}

// SetBudget installs a resource budget on the underlying SAT solver.
// Its conflict cap is shared by every Check until the next SetBudget.
func (s *Solver) SetBudget(b sat.Budget) { s.sat.SetBudget(b) }

// LastLimit reports which budget limit made the most recent Check
// return Unknown (nil when it completed or its context stopped it).
func (s *Solver) LastLimit() *sat.LimitError { return s.sat.LastLimit() }

// UnsatNames returns, after an unsatisfiable Check, the names of named
// assertions that participated in the final conflict. The list may be
// empty if the contradiction involves only unnamed assertions.
func (s *Solver) UnsatNames() []string {
	return append([]string(nil), s.lastUnsatNames...)
}

// Stats reports underlying SAT-solver statistics plus blasting counters.
type Stats struct {
	SAT      sat.Stats
	Checks   int
	BoolLits int
	BVTerms  int
}

// Stats returns solver statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		SAT:      s.sat.Stats(),
		Checks:   s.checks,
		BoolLits: len(s.boolLits),
		BVTerms:  len(s.bits),
	}
}

// ---- model extraction ----

// BoolValue returns the model value of a Boolean term after a Sat Check.
func (s *Solver) BoolValue(t *Term) bool {
	s.ctx.wantSort(t, SortBool)
	switch t.op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpNot:
		return !s.BoolValue(t.args[0])
	case OpAnd:
		for _, a := range t.args {
			if !s.BoolValue(a) {
				return false
			}
		}
		return true
	case OpOr:
		for _, a := range t.args {
			if s.BoolValue(a) {
				return true
			}
		}
		return false
	case OpIte:
		if s.BoolValue(t.args[0]) {
			return s.BoolValue(t.args[1])
		}
		return s.BoolValue(t.args[2])
	case OpEq:
		a, b := t.args[0], t.args[1]
		switch a.sort {
		case SortBool:
			return s.BoolValue(a) == s.BoolValue(b)
		case SortBV:
			return s.BVValue(a) == s.BVValue(b)
		case SortString:
			av, aok := s.strValueOf(a)
			bv, bok := s.strValueOf(b)
			return aok && bok && av == bv
		}
		return false
	case OpBVUlt:
		return s.BVValue(t.args[0]) < s.BVValue(t.args[1])
	case OpBVUle:
		return s.BVValue(t.args[0]) <= s.BVValue(t.args[1])
	case OpBoolVar:
		lit, ok := s.varLits[t.name]
		if !ok {
			return false // never blasted: unconstrained
		}
		return s.sat.Value(lit.Var())
	default:
		panic(fmt.Sprintf("smt: BoolValue of %s", t))
	}
}

// BVValue returns the model value of a bit-vector term after a Sat
// Check. Unconstrained variables evaluate to 0.
func (s *Solver) BVValue(t *Term) uint64 {
	s.ctx.wantSort(t, SortBV)
	switch t.op {
	case OpBVConst:
		return t.val
	case OpBVVar:
		bits, ok := s.bvVars[t.name]
		if !ok {
			return 0
		}
		var v uint64
		for i, b := range bits {
			if s.sat.Value(b.Var()) {
				v |= 1 << uint(i)
			}
		}
		return v
	case OpBVAdd:
		return maskTo(s.BVValue(t.args[0])+s.BVValue(t.args[1]), t.width)
	case OpBVSub:
		return maskTo(s.BVValue(t.args[0])-s.BVValue(t.args[1]), t.width)
	case OpBVMul:
		return maskTo(s.BVValue(t.args[0])*s.BVValue(t.args[1]), t.width)
	case OpBVAnd:
		return s.BVValue(t.args[0]) & s.BVValue(t.args[1])
	case OpBVOr:
		return s.BVValue(t.args[0]) | s.BVValue(t.args[1])
	case OpBVXor:
		return s.BVValue(t.args[0]) ^ s.BVValue(t.args[1])
	case OpBVNot:
		return maskTo(^s.BVValue(t.args[0]), t.width)
	case OpBVShl:
		return maskTo(s.BVValue(t.args[0])<<uint(t.val), t.width)
	case OpBVLshr:
		return s.BVValue(t.args[0]) >> uint(t.val)
	case OpBVExtract:
		hi, lo := int(t.val>>8), int(t.val&0xff)
		return maskTo(s.BVValue(t.args[0])>>uint(lo), hi-lo+1)
	case OpBVConcat:
		hi, lo := t.args[0], t.args[1]
		return s.BVValue(hi)<<uint(lo.width) | s.BVValue(lo)
	case OpIte:
		if s.BoolValue(t.args[0]) {
			return s.BVValue(t.args[1])
		}
		return s.BVValue(t.args[2])
	default:
		panic(fmt.Sprintf("smt: BVValue of %s", t))
	}
}

// StrValue returns the model value of a string term after a Sat Check.
// ok is false when the variable is unconstrained (it can take any
// domain value not mentioned in its constraints).
func (s *Solver) StrValue(t *Term) (value string, ok bool) {
	return s.strValueOf(t)
}

func (s *Solver) strValueOf(t *Term) (string, bool) {
	switch t.op {
	case OpStrConst:
		return t.name, true
	case OpStrVar:
		for _, c := range s.ctx.strNames {
			if lit, ok := s.strPairs[[2]string{t.name, c}]; ok && s.sat.Value(lit.Var()) {
				return c, true
			}
		}
		return "", false
	default:
		panic(fmt.Sprintf("smt: StrValue of %s", t))
	}
}
