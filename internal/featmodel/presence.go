package featmodel

import (
	"context"
	"slices"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// PresenceEncoder is the SAT substrate of family-based lifted checking
// (DESIGN.md §14). It holds one incremental solver session seeded with
// the feature-model formula and compiles delta activation conditions
// ("when" clauses and guards derived from them) into *presence
// literals*: a literal that is true in a model of the session exactly
// when the guard expression holds in the corresponding configuration.
//
// A lifted violation query is a plain assumption solve against the
// shared session: Assumptions flattens the guard's top-level
// conjunction into one literal per conjunct, so SAT(FM ∧ g ∧ h) is
// Solve(lit(g), lit(h)) and no conjunction is ever encoded. A Sat
// answer decodes back to a concrete violating configuration via
// Config. The session is never reset between queries; clause learning
// accumulates across the whole family, which is the point of checking
// the product line in one session instead of one solver per product.
type PresenceEncoder struct {
	model  *Model
	pool   *logic.Pool
	vm     *VarMap
	solver *sat.Solver

	atoms   map[*Expr]logic.Lit  // expression pointer → presence literal
	lits    map[string]logic.Lit // canonical Expr.String() → presence literal
	unknown map[string]logic.Var // names outside the model, forced false
	tru     logic.Lit            // lazily allocated constant-true literal

	queries int // assumption solves issued against the session
}

// NewPresenceEncoder seeds a fresh incremental session with the
// feature-model formula of m. The model must be well-formed (built via
// NewModel); NewPresenceEncoder panics otherwise, like NewAnalyzer.
func NewPresenceEncoder(m *Model) *PresenceEncoder {
	pool := logic.NewPool()
	vm := NewVarMap(pool)
	f := m.MustToFormula(vm, "")
	s := sat.New()
	s.AddCNF(logic.ToCNF(f, pool))
	return &PresenceEncoder{
		model:   m,
		pool:    pool,
		vm:      vm,
		solver:  s,
		atoms:   make(map[*Expr]logic.Lit),
		lits:    make(map[string]logic.Lit),
		unknown: make(map[string]logic.Var),
	}
}

// True returns a literal constrained to be true in every model — the
// presence literal of an unconditional (guard-free) artifact.
func (pe *PresenceEncoder) True() logic.Lit {
	if pe.tru == 0 {
		v := pe.pool.Fresh()
		pe.tru = logic.Lit(v)
		cnf := &logic.CNF{NumVars: pe.pool.NumVars()}
		cnf.AddClause(pe.tru)
		pe.solver.AddCNF(cnf)
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
		l = logic.Tseitin(f, pe.pool, cnf)
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

func (pe *PresenceEncoder) lookup(name string) (logic.Var, bool) {
	if pe.model.Feature(name) != nil {
		return pe.vm.Var(name), true
	}
	v, ok := pe.unknown[name]
	if !ok {
		v = pe.pool.Fresh()
		pe.unknown[name] = v
		cnf := &logic.CNF{NumVars: pe.pool.NumVars()}
		cnf.AddClause(-logic.Lit(v))
		pe.solver.AddCNF(cnf)
	}
	return v, true
}

// FeatureLit returns the literal of a feature variable itself (positive
// polarity), for assumption sets that pin individual features.
func (pe *PresenceEncoder) FeatureLit(name string) logic.Lit {
	return logic.Lit(pe.vm.Var(name))
}

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
// is a real product exhibiting whatever the assumptions asserted.
func (pe *PresenceEncoder) Config() Configuration {
	cfg := make(Configuration, len(pe.model.order))
	for _, name := range pe.model.order {
		if v, ok := pe.vm.Lookup(name); ok && pe.solver.Value(v) {
			cfg[name] = true
		}
	}
	return cfg
}

// SetBudget forwards a resource budget to the underlying session.
func (pe *PresenceEncoder) SetBudget(b sat.Budget) { pe.solver.SetBudget(b) }

// Queries returns the number of assumption solves issued so far.
func (pe *PresenceEncoder) Queries() int { return pe.queries }

// Stats snapshots the underlying solver's counters.
func (pe *PresenceEncoder) Stats() sat.Stats { return pe.solver.Stats() }
