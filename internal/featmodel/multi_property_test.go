package featmodel

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// cnfOracle is the multi-VM CNF check that production ran before the
// partitioning check became ground evaluation: MultiModel.ToFormula
// through logic.ToCNF into one solver, with a complete assignment posed
// as assumptions. It is the oracle MultiModel.Conflict is held to.
type cnfOracle struct {
	mm     *MultiModel
	vm     *VarMap
	solver *sat.Solver
}

func newCNFOracle(t *testing.T, mm *MultiModel) *cnfOracle {
	t.Helper()
	pool := logic.NewPool()
	vm := NewVarMap(pool)
	f, err := mm.ToFormula(vm)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	s.AddCNF(logic.ToCNF(f, pool))
	return &cnfOracle{mm: mm, vm: vm, solver: s}
}

// check assigns every feature of every VM and reports whether the
// encoding is satisfiable under that assignment.
func (o *cnfOracle) check(configs []Configuration) bool {
	var assumptions []logic.Lit
	for k, cfg := range configs {
		for _, name := range o.mm.Base.order {
			l := logic.Lit(o.vm.Var(VMPrefix(k+1) + name))
			if !cfg[name] {
				l = -l
			}
			assumptions = append(assumptions, l)
		}
	}
	return o.solver.Solve(assumptions...) == sat.Sat
}

// unsat poses literals such as "vm1/cpu@0" or "!vm2/veth0" as
// assumptions and reports whether the encoding refutes them.
func (o *cnfOracle) unsat(t *testing.T, lits []string) bool {
	t.Helper()
	assumptions := make([]logic.Lit, 0, len(lits))
	for _, s := range lits {
		name, neg := strings.CutPrefix(s, "!")
		v, ok := o.vm.Lookup(name)
		if !ok {
			t.Fatalf("literal %q names no variable of the encoding", s)
		}
		l := logic.Lit(v)
		if neg {
			l = -l
		}
		assumptions = append(assumptions, l)
	}
	return o.solver.Solve(assumptions...) == sat.Unsat
}

// productKey renders the model features a configuration selects, in
// depth-first order, as bruteForceProducts lists them.
func productKey(m *Model, cfg Configuration) string {
	var sel []string
	for _, n := range m.Names() {
		if cfg[n] {
			sel = append(sel, n)
		}
	}
	return strings.Join(sel, ",")
}

// multiModelGroundTruth decides a multi-VM configuration by definition:
// every VM's configuration must be one of the model's products (from
// bruteForceProducts, keyed by productKey), and each Exclusive feature
// may be selected by at most one VM.
func multiModelGroundTruth(m *Model, products map[string]bool, configs []Configuration) bool {
	for _, cfg := range configs {
		if !products[productKey(m, cfg)] {
			return false
		}
	}
	for _, name := range m.Names() {
		if !m.Feature(name).Exclusive {
			continue
		}
		users := 0
		for _, cfg := range configs {
			if cfg[name] {
				users++
			}
		}
		if users > 1 {
			return false
		}
	}
	return true
}

func productSet(t *testing.T, m *Model) map[string]bool {
	t.Helper()
	set := make(map[string]bool)
	for _, p := range bruteForceProducts(t, m) {
		set[strings.Join(p, ",")] = true
	}
	return set
}

// exclusiveModel builds a small model with exclusive leaves for the
// cross-validation test.
func exclusiveModel(t *testing.T) *Model {
	t.Helper()
	root := &Feature{Name: "r", Abstract: true, Group: GroupAnd, Children: []*Feature{
		{Name: "base", Mandatory: true, Group: GroupAnd},
		{Name: "units", Abstract: true, Mandatory: true, Group: GroupXor, Children: []*Feature{
			{Name: "u0", Exclusive: true, Group: GroupAnd},
			{Name: "u1", Exclusive: true, Group: GroupAnd},
			{Name: "u2", Exclusive: true, Group: GroupAnd},
		}},
		{Name: "opt", Group: GroupAnd},
	}}
	m, err := NewModel(root, MustParseExpr("opt -> u0 || u1"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPropertyMultiAnalyzerMatchesGroundTruth(t *testing.T) {
	m := exclusiveModel(t)
	mm, err := NewMultiModel(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newCNFOracle(t, mm)
	truth := productSet(t, m)

	names := m.Names()
	products, complete := NewAnalyzer(m).EnumerateProducts(0)
	if !complete || len(products) == 0 {
		t.Fatal("product enumeration failed")
	}
	rng := rand.New(rand.NewSource(13))
	agreeValid, agreeInvalid := 0, 0
	for iter := 0; iter < 300; iter++ {
		configs := make([]Configuration, 2)
		for k := range configs {
			if rng.Intn(2) == 0 {
				// sample a valid product (pairs may still violate
				// cross-VM exclusivity)
				configs[k] = ConfigOf(products[rng.Intn(len(products))]...)
				continue
			}
			cfg := make(Configuration)
			for _, n := range names {
				if rng.Intn(2) == 0 {
					cfg[n] = true
				}
			}
			configs[k] = cfg
		}
		want := multiModelGroundTruth(m, truth, configs)
		got := oracle.check(configs)
		if got != want {
			t.Fatalf("iter %d: oracle=%v ground-truth=%v\nvm1=%v\nvm2=%v",
				iter, got, want, configs[0].Sorted(), configs[1].Sorted())
		}
		if want {
			agreeValid++
		} else {
			agreeInvalid++
		}
	}
	if agreeValid == 0 {
		t.Error("random sampling never produced a valid partitioning; test is vacuous")
	}
	if agreeInvalid == 0 {
		t.Error("random sampling never produced an invalid partitioning; test is vacuous")
	}
}

// conflictKind names which constraint of MultiModel.Conflict's order a
// literal list comes from, by its shape alone.
func conflictKind(m *Model, lits []string) string {
	type lit struct {
		vm, name string
		pos      bool
	}
	ls := make([]lit, len(lits))
	for i, s := range lits {
		body, neg := strings.CutPrefix(s, "!")
		vm, name, _ := strings.Cut(body, "/")
		ls[i] = lit{vm, name, !neg}
	}
	f := m.Feature(ls[0].name)
	switch {
	case len(ls) == 2 && ls[0].vm != ls[1].vm:
		return "exclusive"
	case len(ls) == 1 && f == m.Root && !ls[0].pos:
		return "root"
	case len(ls) == 2 && ls[0].pos && !ls[1].pos && m.Parent(f.Name) != nil && m.Parent(f.Name).Name == ls[1].name:
		return "child->parent"
	case len(ls) == 2 && ls[0].pos && !ls[1].pos && f.Group == GroupAnd &&
		m.Parent(ls[1].name) == f && m.Feature(ls[1].name).Mandatory:
		return "mandatory"
	case len(ls) == 2 && ls[0].pos && ls[1].pos && m.Parent(f.Name) != nil &&
		m.Parent(f.Name).Group == GroupXor && m.Parent(ls[1].name) == m.Parent(f.Name):
		return "xor"
	case ls[0].pos && (f.Group == GroupOr || f.Group == GroupXor) && len(ls) == len(f.Children)+1:
		for i, c := range f.Children {
			if ls[i+1].pos || ls[i+1].name != c.Name {
				return "cross-tree"
			}
		}
		return f.Group.String()
	}
	return "cross-tree"
}

// TestConflictMatchesCNFOracle holds the ground evaluator to the
// multi-VM CNF encoding: on random models with random Exclusive leaves,
// for 1–3 VMs and random configurations (valid products, products with
// one feature flipped, and arbitrary assignments), Conflict must agree
// with the oracle and with brute-force ground truth, every literal list
// it returns must be refuted by the encoding, and every constraint kind
// must be the one reported at least once.
func TestConflictMatchesCNFOracle(t *testing.T) {
	models := []*Model{paperModel(t), exclusiveModel(t)}
	for seed := int64(100); seed < 140; seed++ {
		m := randomSmallModel(seed)
		rng := rand.New(rand.NewSource(seed))
		for _, n := range m.Names() {
			if f := m.Feature(n); len(f.Children) == 0 && rng.Intn(2) == 0 {
				f.Exclusive = true
			}
		}
		models = append(models, m)
	}

	kinds := make(map[string]int)
	cases := 0
	for i, m := range models {
		rng := rand.New(rand.NewSource(int64(i)))
		truth := productSet(t, m)
		var products []Configuration
		for p := range truth {
			products = append(products, ConfigOf(strings.Split(p, ",")...))
		}
		sort.Slice(products, func(a, b int) bool { return productKey(m, products[a]) < productKey(m, products[b]) })
		names := m.Names()
		randomConfig := func() Configuration {
			var cfg Configuration
			switch r := rng.Intn(3); {
			case r < 2 && len(products) > 0:
				cfg = make(Configuration)
				for n := range products[rng.Intn(len(products))] {
					cfg[n] = true
				}
				if r == 1 {
					n := names[rng.Intn(len(names))]
					cfg[n] = !cfg[n]
				}
			default:
				cfg = make(Configuration)
				for _, n := range names {
					cfg[n] = rng.Intn(2) == 0
				}
			}
			cfg["not-a-feature"] = rng.Intn(2) == 0 // ignored by both sides
			return cfg
		}
		for k := 1; k <= 3; k++ {
			mm, err := NewMultiModel(m, k)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newCNFOracle(t, mm)
			for iter := 0; iter < 12; iter++ {
				configs := make([]Configuration, k)
				for v := range configs {
					configs[v] = randomConfig()
				}
				cases++
				lits, err := mm.Conflict(configs)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.check(configs)
				if truth := multiModelGroundTruth(m, truth, configs); truth != want {
					t.Fatalf("model %d k=%d: oracle=%v ground-truth=%v", i, k, want, truth)
				}
				if got := lits == nil; got != want {
					t.Fatalf("model %d k=%d: Conflict=%v, oracle valid=%v\n%s", i, k, lits, want, m.Format())
				}
				if k == 1 && (m.Conflict(configs[0]) == nil) != want {
					t.Fatalf("model %d: Model.Conflict disagrees with the oracle on %v", i, configs[0].Sorted())
				}
				if lits == nil {
					kinds["valid"]++
					continue
				}
				if !oracle.unsat(t, lits) {
					t.Fatalf("model %d k=%d: explanation %v is satisfiable on the encoding\n%s", i, k, lits, m.Format())
				}
				kinds[conflictKind(m, lits)]++
			}
		}
	}
	if cases < 200 {
		t.Errorf("only %d cases, want >= 200", cases)
	}
	for _, kind := range []string{"valid", "root", "child->parent", "mandatory", "or", "xor", "cross-tree", "exclusive"} {
		if kinds[kind] == 0 {
			t.Errorf("no case reported kind %q (%v)", kind, kinds)
		}
	}
	t.Logf("%d cases: %v", cases, kinds)
}

func TestMultiModelThreeVMsOverThreeUnits(t *testing.T) {
	m := exclusiveModel(t)
	mm, _ := NewMultiModel(m, 3)
	ma := mustMultiAnalyzer(t, mm)
	if ma.IsVoid() {
		t.Fatal("3 VMs over 3 exclusive units should be feasible")
	}
	mm4, _ := NewMultiModel(m, 4)
	if !mustMultiAnalyzer(t, mm4).IsVoid() {
		t.Error("4 VMs over 3 exclusive units should be void")
	}
}
