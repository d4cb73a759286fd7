package featmodel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// randomGuard builds a random guard expression over the given
// feature names, occasionally negated or compounded, mirroring the
// shapes delta "when" clauses take.
func randomGuard(rng *rand.Rand, names []string, depth int) *Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		e := Var(names[rng.Intn(len(names))])
		if rng.Intn(3) == 0 {
			return Not(e)
		}
		return e
	}
	a := randomGuard(rng, names, depth-1)
	b := randomGuard(rng, names, depth-1)
	switch rng.Intn(3) {
	case 0:
		return And(a, b)
	case 1:
		return Or(a, b)
	default:
		return Implies(a, b)
	}
}

// TestPresenceLiteralEquivalence is the property-based check behind
// lifted checking: for random small models and random guards, the
// presence literal is satisfiable together with the feature-model
// formula exactly when some enumerated valid configuration satisfies
// the guard, and pinning any configuration makes the literal agree with
// Expr.Eval on that configuration.
func TestPresenceLiteralEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		m := randomSmallModel(seed)
		if len(m.Names()) > 14 {
			continue
		}
		products := bruteForceProducts(t, m)
		pe := NewPresenceEncoder(m)
		rng := rand.New(rand.NewSource(seed + 1000))
		names := m.Names()

		for trial := 0; trial < 8; trial++ {
			e := randomGuard(rng, names, 2)
			lit := pe.Literal(e)
			if again := pe.Literal(e); again != lit {
				t.Fatalf("seed %d: Literal(%s) not cached: %v vs %v", seed, e, lit, again)
			}

			// Direction 1: enumerated valid configurations → lifted.
			// Pinning every feature to a valid product forces the
			// presence literal to Eval's verdict on that product.
			anyHolds := false
			for _, p := range products {
				cfg := ConfigOf(p...)
				want := e.Eval(cfg)
				if want {
					anyHolds = true
				}
				assumptions := append(pinAll(pe, m, cfg), lit)
				got := pe.Solve(assumptions...) == sat.Sat
				if got != want {
					t.Errorf("seed %d: guard %s on product %v: lifted=%v eval=%v",
						seed, e, p, got, want)
				}
			}

			// Direction 2: lifted → enumerated valid configurations.
			// A free solve over FM ∧ lit is Sat exactly when some valid
			// product satisfies the guard, and the decoded model must be
			// such a product.
			st := pe.Solve(lit)
			if got := st == sat.Sat; got != anyHolds {
				t.Errorf("seed %d: guard %s: SAT(FM ∧ guard)=%v but brute force says %v",
					seed, e, got, anyHolds)
				continue
			}
			if st == sat.Sat {
				cfg := pe.Config()
				if !e.Eval(cfg) {
					t.Errorf("seed %d: guard %s: decoded config %v does not satisfy the guard",
						seed, e, cfg.Sorted())
				}
				if !containsProduct(products, cfg.Sorted()) {
					t.Errorf("seed %d: guard %s: decoded config %v is not a valid product",
						seed, e, cfg.Sorted())
				}
			}
		}
	}
}

// randomConjunctiveGuard builds the guard shapes the lifted checker
// composes: a top-level conjunction (sometimes nil, i.e. "true") of
// random guards, negated conjunctions, names the model does not
// declare, and a && !a contradictions.
func randomConjunctiveGuard(rng *rand.Rand, names []string) *Expr {
	if rng.Intn(10) == 0 {
		return nil
	}
	var e *Expr
	for k := rng.Intn(4); k >= 0; k-- {
		var c *Expr
		switch rng.Intn(8) {
		case 0:
			c = Not(And(randomGuard(rng, names, 1), randomGuard(rng, names, 1)))
		case 1:
			c = Var("no-such-feature")
			if rng.Intn(2) == 0 {
				c = Not(c)
			}
		case 2:
			a := Var(names[rng.Intn(len(names))])
			c = And(a, Not(a))
		default:
			c = randomGuard(rng, names, 2)
		}
		e = AndOpt(e, c)
	}
	return e
}

// TestPresenceAssumptionsEquivalence is the property behind the lifted
// reachability queries: for random small models and conjunctive
// guards, solving a guard's assumption set agrees with solving its
// whole-guard Literal and with brute-force product enumeration, and
// every Sat witness is a valid product on which the guard evaluates
// true. A re-parsed copy of the guard (new pointers, same string) must
// flatten to the same assumption set.
func TestPresenceAssumptionsEquivalence(t *testing.T) {
	verdicts := make(map[bool]int)
	for seed := int64(0); seed < 30; seed++ {
		m := randomSmallModel(seed)
		if len(m.Names()) > 14 {
			continue
		}
		products := bruteForceProducts(t, m)
		pa := NewPresenceEncoder(m) // assumption sets
		pl := NewPresenceEncoder(m) // whole-guard literals
		rng := rand.New(rand.NewSource(seed + 2000))
		names := m.Names()

		for trial := 0; trial < 12; trial++ {
			e := randomConjunctiveGuard(rng, names)
			want := false
			for _, p := range products {
				if EvalOpt(e, ConfigOf(p...)) {
					want = true
					break
				}
			}

			set := pa.Assumptions(nil, e)
			if !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
				t.Errorf("seed %d: guard %v: assumption set %v not sorted and deduplicated", seed, e, set)
			}
			if e != nil {
				again, err := ParseExpr(e.String())
				if err != nil {
					t.Fatal(err)
				}
				if got := pa.Assumptions(nil, again); !slices.Equal(got, set) {
					t.Errorf("seed %d: guard %s: re-parsed copy flattens to %v, want %v", seed, e, got, set)
				}
			}

			verdicts[want]++
			st := pa.Solve(set...)
			if got := st == sat.Sat; got != want {
				t.Errorf("seed %d: guard %v: assumption set Sat=%v but brute force says %v", seed, e, got, want)
			}
			if st == sat.Sat {
				cfg := pa.Config()
				if !EvalOpt(e, cfg) {
					t.Errorf("seed %d: guard %v: witness %v does not satisfy the guard", seed, e, cfg.Sorted())
				}
				if !containsProduct(products, cfg.Sorted()) {
					t.Errorf("seed %d: guard %v: witness %v is not a valid product", seed, e, cfg.Sorted())
				}
			}
			if got := pl.Solve(pl.Literal(e)) == sat.Sat; got != want {
				t.Errorf("seed %d: guard %v: whole-guard literal Sat=%v but brute force says %v", seed, e, got, want)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("guards should cover both verdicts, got %v", verdicts)
	}
}

// TestPresenceConjunctionAddsNoClauses: a conjunction of feature
// literals is posed purely as assumptions, so flattening it leaves the
// session's clause set unchanged.
func TestPresenceConjunctionAddsNoClauses(t *testing.T) {
	m := nonVoidSmallModel(t)
	pe := NewPresenceEncoder(m)
	names := m.Names()
	before := pe.Stats().Clauses
	e := And(Var(names[0]), And(Not(Var(names[len(names)-1])), Var(names[0])))
	if got := pe.Assumptions(nil, e); len(got) != 2 {
		t.Errorf("Assumptions(%s) = %v, want two literals", e, got)
	}
	if after := pe.Stats().Clauses; after != before {
		t.Errorf("flattening %s grew the session from %d to %d clauses", e, before, after)
	}
}

// pinAll returns assumptions fixing every feature to its value in cfg.
func pinAll(pe *PresenceEncoder, m *Model, cfg Configuration) []logic.Lit {
	var out []logic.Lit
	for _, name := range m.Names() {
		l := pe.FeatureLit(name)
		if !cfg[name] {
			l = -l
		}
		out = append(out, l)
	}
	return out
}

// containsProduct reports whether the lexicographically sorted
// selection appears among the brute-forced products (which list names
// in model DFS order).
func containsProduct(products [][]string, sorted []string) bool {
	for _, p := range products {
		if equalStrings(sortedCopy(p), sorted) {
			return true
		}
	}
	return false
}

// nonVoidSmallModel returns a deterministic random model that admits at
// least one product (some seeds produce void models).
func nonVoidSmallModel(t *testing.T) *Model {
	t.Helper()
	for seed := int64(0); seed < 50; seed++ {
		m := randomSmallModel(seed)
		if !NewAnalyzer(m).IsVoid() {
			return m
		}
	}
	t.Fatal("no non-void model among the first 50 seeds")
	return nil
}

func TestPresenceUnknownFeatureIsFalse(t *testing.T) {
	m := nonVoidSmallModel(t)
	pe := NewPresenceEncoder(m)
	if pe.Solve(pe.Literal(Var("no-such-feature"))) == sat.Sat {
		t.Errorf("guard over an unknown feature must be unsatisfiable")
	}
	if pe.Solve(pe.Literal(Not(Var("no-such-feature")))) != sat.Sat {
		t.Errorf("negated unknown feature must be satisfiable in a non-void model")
	}
}

func TestPresenceNilGuardIsTrue(t *testing.T) {
	m := nonVoidSmallModel(t)
	pe := NewPresenceEncoder(m)
	if pe.Solve(pe.Literal(nil)) != sat.Sat {
		t.Errorf("nil guard must be satisfiable exactly when the model is non-void")
	}
	if pe.Solve(-pe.Literal(nil)) == sat.Sat {
		t.Errorf("negated constant-true literal must be unsatisfiable")
	}
	if pe.Queries() != 2 {
		t.Errorf("Queries() = %d, want 2", pe.Queries())
	}
}

// TestGuardAlgebraOracle holds the guard algebra to Assumptions and to
// Expr.Eval on random small models: Guard is Assumptions literal for
// literal, And is Assumptions of AndOpt, equal sets intern to one
// handle, and with every feature pinned to a valid configuration, Not
// and Or solve exactly as Expr.Eval of Not and Or decides.
func TestGuardAlgebraOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		m := randomSmallModel(seed)
		if len(m.Names()) > 14 {
			continue
		}
		products := bruteForceProducts(t, m)
		pe := NewPresenceEncoder(m)
		rng := rand.New(rand.NewSource(seed + 3000))
		names := m.Names()
		var handles []Guard

		for trial := 0; trial < 10; trial++ {
			a, b := randomConjunctiveGuard(rng, names), randomConjunctiveGuard(rng, names)
			ga, gb := pe.Guard(a), pe.Guard(b)
			if got, want := pe.Lits(ga), pe.Assumptions(nil, a); !slices.Equal(got, want) {
				t.Errorf("seed %d: Lits(Guard(%v)) = %v, want Assumptions %v", seed, a, got, want)
			}
			and := pe.And(ga, gb)
			if got, want := pe.Lits(and), pe.Assumptions(nil, AndOpt(a, b)); !slices.Equal(got, want) {
				t.Errorf("seed %d: Lits(And(%v, %v)) = %v, want Assumptions of AndOpt %v", seed, a, b, got, want)
			}
			if pe.And(gb, ga) != and || pe.Guard(AndOpt(a, b)) != and {
				t.Errorf("seed %d: %v && %v: equal sets got different handles", seed, a, b)
			}
			if a != nil {
				again, err := ParseExpr(a.String())
				if err != nil {
					t.Fatal(err)
				}
				if pe.Guard(again) != ga {
					t.Errorf("seed %d: re-parsed %s got a different handle", seed, a)
				}
			}

			type op struct {
				name string
				g    Guard
				e    *Expr // the expression the handle must decide like
			}
			ops := []op{{"And", and, AndOpt(a, b)}, {"Or", pe.Or(ga, gb), OrOpt(a, b)}}
			if a != nil {
				ops = append(ops, op{"Not", pe.Not(ga), Not(a)})
			}
			for _, o := range ops {
				handles = append(handles, o.g)
				for _, p := range products {
					cfg := ConfigOf(p...)
					want := EvalOpt(o.e, cfg)
					got := pe.Solve(append(pinAll(pe, m, cfg), pe.Lits(o.g)...)...) == sat.Sat
					if got != want {
						t.Errorf("seed %d: %s guard for %v on product %v: solve=%v eval=%v", seed, o.name, o.e, p, got, want)
					}
				}
			}
		}
		for i, g := range handles {
			for _, h := range handles[i+1:] {
				if slices.Equal(pe.Lits(g), pe.Lits(h)) != (g == h) {
					t.Errorf("seed %d: handles %d and %d: sets %v and %v", seed, g, h, pe.Lits(g), pe.Lits(h))
				}
			}
		}
	}
}

// TestAppendModelMatchesConfig holds the witness bitset to Config:
// after every Sat solve of random guards — on the paper's model, the
// models of randomEncodingModel and a model of 130 features, whose
// bitset spans three words — DecodeModel of what AppendModel appended
// is the configuration Config decodes, and the words already in dst
// are left alone.
func TestAppendModelMatchesConfig(t *testing.T) {
	wide := &Feature{Name: "wide", Abstract: true, Group: GroupAnd}
	for i := range 129 {
		wide.Children = append(wide.Children, &Feature{Name: fmt.Sprintf("w%d", i)})
	}
	wideModel, err := NewModel(wide)
	if err != nil {
		t.Fatal(err)
	}
	models := []*Model{paperModel(t), wideModel}
	for seed := int64(0); seed < 60; seed++ {
		models = append(models, randomEncodingModel(seed))
	}
	prefix := []uint64{0xdead, 0xbeef}
	sats := 0
	for i, m := range models {
		pe := NewPresenceEncoder(m)
		rng := rand.New(rand.NewSource(int64(i) + 5000))
		for trial := 0; trial < 12; trial++ {
			if pe.Solve(pe.Lits(pe.Guard(randomConjunctiveGuard(rng, m.Names())))...) != sat.Sat {
				continue
			}
			sats++
			bits := pe.AppendModel(slices.Clone(prefix))
			if !slices.Equal(bits[:len(prefix)], prefix) {
				t.Fatalf("model %d: AppendModel overwrote dst: %x", i, bits[:len(prefix)])
			}
			if words := len(bits) - len(prefix); words != (len(m.Names())+63)/64 {
				t.Fatalf("model %d: %d words for %d features", i, words, len(m.Names()))
			}
			if got, want := pe.DecodeModel(bits[len(prefix):]), pe.Config(); !maps.Equal(got, want) {
				t.Errorf("model %d: decoded %v, Config %v", i, got.Sorted(), want.Sorted())
			}
		}
	}
	if sats < 200 {
		t.Errorf("only %d Sat solves compared, want >= 200", sats)
	}
}

// TestInternSmallAndLongSetsDistinct holds intern's two key spaces
// apart: one- and two-literal sets are keyed packed and longer ones by
// string, and no two of these sets, nor a re-interned copy, share a
// handle with another set.
func TestInternSmallAndLongSetsDistinct(t *testing.T) {
	pe := NewPresenceEncoder(paperModel(t))
	const a, b, c = logic.Lit(3), logic.Lit(5), logic.Lit(1 << 30)
	sets := [][]logic.Lit{
		{a}, {-a}, {b}, {c}, {-c},
		{a, b}, {-b, a}, {-a, b}, {a, c}, {-c, a}, {-c, -a},
		{a, b, c}, {-c, a, b}, {-b, a, 7, c},
	}
	handles := make(map[Guard][]logic.Lit)
	for _, set := range sets {
		g := pe.intern(set)
		if prev, ok := handles[g]; ok {
			t.Errorf("sets %v and %v share handle %d", prev, set, g)
		}
		handles[g] = set
		if got := pe.Lits(g); !slices.Equal(got, set) {
			t.Errorf("Lits(intern(%v)) = %v", set, got)
		}
	}
	for g, set := range handles {
		if again := pe.intern(slices.Clone(set)); again != g {
			t.Errorf("re-interning %v gave %d, want %d", set, again, g)
		}
	}
}
