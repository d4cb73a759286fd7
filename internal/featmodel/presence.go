package featmodel

import (
	"context"
	"encoding/binary"
	"slices"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// PresenceEncoder is the SAT-session guard algebra of family-based
// lifted checking (DESIGN.md §14). It holds one incremental solver
// session seeded with the feature model's Encoding and compiles delta
// activation conditions ("when" clauses and guards derived from them)
// into *presence literals*: a literal that is true in a model of the
// session exactly when the guard expression holds in the corresponding
// configuration.
//
// A lifted violation query is a plain assumption solve against the
// shared session: Assumptions flattens the guard's top-level
// conjunction into one literal per conjunct, so SAT(FM ∧ g ∧ h) is
// Solve(lit(g), lit(h)) and no conjunction is ever encoded. A Sat
// answer decodes back to a concrete violating configuration via
// Config, or is kept as a bitset by AppendModel and decoded later by
// DecodeModel, only if a caller needs the configuration. The session
// is never reset between queries; clause learning accumulates across
// the whole family, which is the point of checking the product line in
// one session instead of one solver per product.
//
// Lifted checkers compose guards as Guard handles rather than
// expressions: Guard interns a guard's assumption set once per
// expression, and And, Not and Or combine handles through memos, so a
// composed guard is never rebuilt as an expression tree nor flattened
// again. ProductSets has the same methods for Guard, And, Not, Or,
// Reachable and Witness, without a solver, for a model whose feature
// tree allows at most MaxProductSet configurations.
type PresenceEncoder struct {
	enc    *Encoding
	pool   logic.Pool // past enc's variables: guard definitions, unknown names
	solver *sat.Solver

	atoms   map[*Expr]logic.Lit  // expression pointer → presence literal
	lits    map[string]logic.Lit // canonical Expr.String() → presence literal
	unknown map[string]logic.Var // names outside the model, forced false
	tru     logic.Lit            // lazily allocated constant-true literal

	// The guard algebra (Guard, And, Not, Or): interned assumption sets.
	// Set g is setLits[bounds[g]:bounds[g+1]]; handle 0 is the empty set.
	setLits []logic.Lit
	bounds  []int32
	small   map[uint64]Guard    // packed one- or two-literal set → handle
	setIDs  map[string]Guard    // little-endian encoded longer set → handle
	exprs   map[*Expr]Guard     // Guard memo
	ands    map[uint64]Guard    // And memo, keyed by the ordered pair
	ors     map[uint64]Guard    // Or memo, keyed by the ordered pair
	conj    map[Guard]logic.Lit // definition literal of a multi-literal set
	buf     []logic.Lit         // scratch set
	key     []byte              // scratch interning key

	reach   []reachResult // guard handle → cached verdict (Reachable)
	models  []uint64      // witness bitsets of the Sat verdicts (AppendModel)
	queries int           // assumption solves issued against the session
	pruned  int           // Unsat verdicts among them
}

// reachResult caches one guard's session verdict: whether any valid
// configuration satisfies it, and if so where its witness model sits
// in models.
type reachResult struct {
	known, ok bool
	lo, hi    int32
}

// NewPresenceEncoder seeds a fresh incremental session with a copy of
// m's Encoding. The model must be well-formed (built via NewModel);
// NewPresenceEncoder panics otherwise, like NewAnalyzer.
func NewPresenceEncoder(m *Model) *PresenceEncoder {
	enc := m.mustEncoding()
	pe := &PresenceEncoder{
		enc:     enc,
		solver:  enc.newSolver(),
		atoms:   make(map[*Expr]logic.Lit),
		lits:    make(map[string]logic.Lit),
		unknown: make(map[string]logic.Var),
		bounds:  []int32{0, 0},
		small:   make(map[uint64]Guard),
		setIDs:  make(map[string]Guard),
		exprs:   make(map[*Expr]Guard),
		ands:    make(map[uint64]Guard),
		ors:     make(map[uint64]Guard),
		conj:    make(map[Guard]logic.Lit),
	}
	pe.pool.Reserve(logic.Var(enc.numVars))
	return pe
}

// True returns a literal constrained to be true in every model — the
// presence literal of an unconditional (guard-free) artifact.
func (pe *PresenceEncoder) True() logic.Lit {
	if pe.tru == 0 {
		v := pe.pool.Fresh()
		pe.tru = logic.Lit(v)
		pe.solver.AddClause(pe.tru)
	}
	return pe.tru
}

// Literal compiles a guard expression into its presence literal,
// loading the Tseitin definition clauses into the shared session. A nil
// expression means "always present" and yields the constant-true
// literal. Feature names outside the model are forced false, matching
// Expr.Eval's unknown-name semantics, so a delta guarded on a feature
// the model never declares is unsatisfiable in both worlds.
//
// Literals are cached by expression pointer, and by canonical string
// when the pointer is new, so the same guard reused across many
// artifacts costs one encoding.
func (pe *PresenceEncoder) Literal(e *Expr) logic.Lit {
	if e == nil {
		return pe.True()
	}
	if l, ok := pe.atoms[e]; ok {
		return l
	}
	key := e.String()
	l, ok := pe.lits[key]
	if !ok {
		f, err := e.ToFormula(pe.lookup)
		if err != nil {
			// Unreachable: lookup never reports a missing name.
			panic(err)
		}
		cnf := &logic.CNF{NumVars: pe.pool.NumVars()}
		l = logic.Tseitin(f, &pe.pool, cnf)
		if pe.pool.NumVars() > cnf.NumVars {
			cnf.NumVars = pe.pool.NumVars()
		}
		pe.solver.AddCNF(cnf)
		pe.lits[key] = l
	}
	pe.atoms[e] = l
	return l
}

// Assumptions appends to dst the assumption set that decides guard e —
// literals whose conjunction holds in a model of the session exactly
// when e holds in its configuration — and returns dst with the
// appended part sorted and deduplicated. The top-level conjunction is
// flattened, so g ∧ h contributes lit(g) and lit(h) and adds nothing to
// the session; a nil guard contributes no literal. Each conjunct maps
// to a literal by atom.
func (pe *PresenceEncoder) Assumptions(dst []logic.Lit, e *Expr) []logic.Lit {
	n := len(dst)
	dst = pe.appendConjuncts(dst, e)
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

func (pe *PresenceEncoder) appendConjuncts(dst []logic.Lit, e *Expr) []logic.Lit {
	switch {
	case e == nil:
		return dst
	case e.Kind == ExprAnd:
		return pe.appendConjuncts(pe.appendConjuncts(dst, e.Args[0]), e.Args[1])
	default:
		return append(dst, pe.atom(e))
	}
}

// atom returns the literal of one conjunct: a feature variable is its
// own literal (forced false when the model does not declare it), a
// negation is the negated literal of its body, and every other term —
// a disjunction, an implication, a negated conjunction's body — is
// Tseitin-encoded once through Literal.
func (pe *PresenceEncoder) atom(e *Expr) logic.Lit {
	switch e.Kind {
	case ExprVar:
		v, _ := pe.lookup(e.Name)
		return logic.Lit(v)
	case ExprNot:
		return -pe.atom(e.Args[0])
	default:
		return pe.Literal(e)
	}
}

// Guard names one interned guard of a guard algebra: a
// PresenceEncoder session or ProductSets. In a session it is an
// assumption set: sorted, duplicate-free literals whose conjunction
// holds in a model of the session exactly when the guard it stands for
// holds in that model's configuration, and the zero Guard is the empty
// set, "always". In
// ProductSets it is the set of valid products the guard selects, and
// the zero Guard is every valid product, so any guard that holds in
// every valid product is 0 there. Equal sets intern to one handle, and
// handles are small and dense, so per-guard state (the session's
// reachability memo) lives in a slice indexed by handle. Handles
// belong to the algebra that made them.
type Guard int32

// Guard returns the handle of Assumptions(nil, e), memoized per
// expression pointer, so a guard read off a merged tree is flattened
// once per session however often it is composed. A nil expression is
// the always guard 0.
func (pe *PresenceEncoder) Guard(e *Expr) Guard {
	if e == nil {
		return 0
	}
	if g, ok := pe.exprs[e]; ok {
		return g
	}
	pe.buf = pe.Assumptions(pe.buf[:0], e)
	g := pe.intern(pe.buf)
	pe.exprs[e] = g
	return g
}

// And returns the handle of the union of the two sets: the conjunction
// of the guards, which is Assumptions of their AndOpt by construction.
// A 0 operand returns the other without reading the encoder, so rules
// whose guards are all 0 compose them with no session at all.
func (pe *PresenceEncoder) And(a, b Guard) Guard {
	if a == 0 || a == b {
		return b
	}
	if b == 0 {
		return a
	}
	k := pairKey(a, b)
	if g, ok := pe.ands[k]; ok {
		return g
	}
	pe.buf = mergeSets(pe.buf[:0], pe.Lits(a), pe.Lits(b))
	g := pe.intern(pe.buf)
	pe.ands[k] = g
	return g
}

// Not returns the handle of the negation of g: the negated literal of a
// single-literal set, and otherwise the negation of one definition
// literal of the set's conjunction, encoded once per set. Not(0) is the
// negated constant-true literal, which no valid configuration
// satisfies.
func (pe *PresenceEncoder) Not(g Guard) Guard {
	if g == 0 {
		return pe.intern1(-pe.True())
	}
	return pe.intern1(-pe.conjLit(g))
}

// Or returns the handle of the disjunction of a and b: one definition
// literal over the two conjunctions, encoded once per pair. Like OrOpt,
// the disjunction with the always guard is always.
func (pe *PresenceEncoder) Or(a, b Guard) Guard {
	if a == 0 || b == 0 {
		return 0
	}
	if a == b {
		return a
	}
	k := pairKey(a, b)
	if g, ok := pe.ors[k]; ok {
		return g
	}
	x, y := pe.conjLit(a), pe.conjLit(b)
	d := logic.Lit(pe.pool.Fresh())
	pe.solver.AddClause(-x, d)
	pe.solver.AddClause(-y, d)
	pe.solver.AddClause(-d, x, y)
	g := pe.intern1(d)
	pe.ors[k] = g
	return g
}

// Lits returns g's assumption set. The slice is shared and must not be
// modified.
func (pe *PresenceEncoder) Lits(g Guard) []logic.Lit {
	lo, hi := pe.bounds[g], pe.bounds[g+1]
	return pe.setLits[lo:hi:hi]
}

// conjLit returns a literal equivalent to the conjunction of g's set: the
// literal itself for a single-literal set, else a definition literal d
// with d ↔ ∧set, encoded once.
func (pe *PresenceEncoder) conjLit(g Guard) logic.Lit {
	set := pe.Lits(g)
	if len(set) == 1 {
		return set[0]
	}
	if d, ok := pe.conj[g]; ok {
		return d
	}
	d := logic.Lit(pe.pool.Fresh())
	long := make([]logic.Lit, 0, len(set)+1)
	for _, l := range set {
		pe.solver.AddClause(-d, l)
		long = append(long, -l)
	}
	pe.solver.AddClause(append(long, d)...)
	pe.conj[g] = d
	return d
}

// intern returns the handle of a sorted, duplicate-free set, adding it
// on first sight. Sets of one or two literals, nearly every guard a
// lifted check composes, are keyed by packSmall without allocating;
// longer sets by their little-endian encoding.
func (pe *PresenceEncoder) intern(set []logic.Lit) Guard {
	switch len(set) {
	case 0:
		return 0
	case 1, 2:
		k := packSmall(set)
		g, ok := pe.small[k]
		if !ok {
			g = pe.add(set)
			pe.small[k] = g
		}
		return g
	}
	pe.key = pe.key[:0]
	for _, l := range set {
		pe.key = binary.LittleEndian.AppendUint32(pe.key, uint32(l))
	}
	if g, ok := pe.setIDs[string(pe.key)]; ok {
		return g
	}
	g := pe.add(set)
	pe.setIDs[string(pe.key)] = g
	return g
}

// add appends a new set and returns its handle.
func (pe *PresenceEncoder) add(set []logic.Lit) Guard {
	g := Guard(len(pe.bounds) - 1)
	pe.setLits = append(pe.setLits, set...)
	pe.bounds = append(pe.bounds, int32(len(pe.setLits)))
	return g
}

// packSmall packs a set of one or two literals into one key: the first
// literal in the high word and the second, if any, in the low word.
// Literals are never 0, so {a} (low word 0) and {a, b} cannot collide.
func packSmall(set []logic.Lit) uint64 {
	k := uint64(uint32(set[0])) << 32
	if len(set) == 2 {
		k |= uint64(uint32(set[1]))
	}
	return k
}

func (pe *PresenceEncoder) intern1(l logic.Lit) Guard {
	pe.buf = append(pe.buf[:0], l)
	return pe.intern(pe.buf)
}

// pairKey keys a commutative operation's memo by its operands in
// ascending order.
func pairKey(a, b Guard) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// mergeSets appends the sorted union of two sorted, duplicate-free sets
// to dst.
func mergeSets(dst, a, b []logic.Lit) []logic.Lit {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

func (pe *PresenceEncoder) lookup(name string) (logic.Var, bool) {
	if v, ok := pe.enc.vars[name]; ok {
		return v, true
	}
	v, ok := pe.unknown[name]
	if !ok {
		v = pe.pool.Fresh()
		pe.unknown[name] = v
		pe.solver.AddClause(-logic.Lit(v))
	}
	return v, true
}

// FeatureLit returns the literal of a feature variable itself (positive
// polarity), for assumption sets that pin individual features. A name
// outside the model gets a literal forced false, as in guards.
func (pe *PresenceEncoder) FeatureLit(name string) logic.Lit {
	v, _ := pe.lookup(name)
	return logic.Lit(v)
}

// Reachable reports whether some valid configuration satisfies guard g
// (0 = always, i.e. "is the model non-void"): one assumption solve of
// g's set under ctx and the session's budget, whose error it returns.
// A verdict is cached by handle, and equal sets share a handle, so a
// guard, however it was composed, costs one query. A Sat verdict keeps
// its model as a bitset for Witness.
func (pe *PresenceEncoder) Reachable(ctx context.Context, g Guard) (bool, error) {
	if int(g) < len(pe.reach) && pe.reach[g].known {
		return pe.reach[g].ok, nil
	}
	st, err := pe.SolveContext(ctx, pe.Lits(g)...)
	if err != nil {
		return false, err
	}
	res := reachResult{known: true, ok: st == sat.Sat}
	if res.ok {
		res.lo = int32(len(pe.models))
		pe.models = pe.AppendModel(pe.models)
		res.hi = int32(len(pe.models))
	} else {
		pe.pruned++
	}
	if n := int(g) + 1; n > len(pe.reach) {
		pe.reach = append(pe.reach, make([]reachResult, n-len(pe.reach))...)
	}
	pe.reach[g] = res
	return res.ok, nil
}

// Witness returns the model of g's Sat verdict, which Reachable must
// have found.
func (pe *PresenceEncoder) Witness(g Guard) Configuration {
	res := pe.reach[g]
	return pe.DecodeModel(pe.models[res.lo:res.hi])
}

// Pruned returns the number of distinct guards the session proved no
// valid configuration satisfies.
func (pe *PresenceEncoder) Pruned() int { return pe.pruned }

// SolveContext asks whether any valid configuration satisfies all the
// given presence literals, honoring ctx cancellation and the session's
// budget. Every call is counted; see Queries.
func (pe *PresenceEncoder) SolveContext(ctx context.Context, assumptions ...logic.Lit) (sat.Status, error) {
	pe.queries++
	return pe.solver.SolveContext(ctx, assumptions...)
}

// Solve is SolveContext without cancellation.
func (pe *PresenceEncoder) Solve(assumptions ...logic.Lit) sat.Status {
	pe.queries++
	return pe.solver.Solve(assumptions...)
}

// Config decodes the session's current model (valid after a Sat solve)
// into the concrete configuration it describes: exactly the features
// assigned true. This is the witness-decoding step — the configuration
// is a real product exhibiting whatever the assumptions asserted. It
// reads the solver directly and is the reference AppendModel and
// DecodeModel are tested against.
func (pe *PresenceEncoder) Config() Configuration {
	cfg := make(Configuration, len(pe.enc.names))
	for i, name := range pe.enc.names {
		if pe.solver.Value(logic.Var(i + 1)) {
			cfg[name] = true
		}
	}
	return cfg
}

// AppendModel appends the session's current model (valid after a Sat
// solve) to dst as a bitset over the features: bit i%64 of word i/64
// of the appended part is set exactly when feature Names()[i] is true.
// It is Config without the map, for callers that keep many models and
// decode few of them; DecodeModel turns it into the same configuration.
func (pe *PresenceEncoder) AppendModel(dst []uint64) []uint64 {
	n := len(dst)
	dst = append(dst, make([]uint64, (len(pe.enc.names)+63)/64)...)
	for i := range pe.enc.names {
		if pe.solver.Value(logic.Var(i + 1)) {
			dst[n+i/64] |= 1 << (i % 64)
		}
	}
	return dst
}

// DecodeModel returns the configuration of a model appended by
// AppendModel: exactly the features whose bit is set.
func (pe *PresenceEncoder) DecodeModel(model []uint64) Configuration {
	return pe.enc.decode(model)
}

// SetBudget forwards a resource budget to the underlying session.
func (pe *PresenceEncoder) SetBudget(b sat.Budget) { pe.solver.SetBudget(b) }

// Queries returns the number of assumption solves issued so far.
func (pe *PresenceEncoder) Queries() int { return pe.queries }

// Stats snapshots the underlying solver's counters.
func (pe *PresenceEncoder) Stats() sat.Stats { return pe.solver.Stats() }
