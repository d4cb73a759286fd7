package featmodel

import (
	"math/rand"
	"testing"

	"llhsc/internal/logic"
)

// bruteForceProducts enumerates valid products of a model by exhaustive
// assignment over all features (usable for <= ~16 features).
func bruteForceProducts(t *testing.T, m *Model) [][]string {
	t.Helper()
	names := m.Names()
	if len(names) > 16 {
		t.Fatalf("model too large for brute force: %d features", len(names))
	}
	pool := logic.NewPool()
	vm := NewVarMap(pool)
	f, err := m.ToFormula(vm, "")
	if err != nil {
		t.Fatal(err)
	}

	var out [][]string
	for mask := uint64(0); mask < 1<<uint(len(names)); mask++ {
		env := make(map[logic.Var]bool, len(names))
		var selected []string
		for i, name := range names {
			v := vm.Var(name)
			if mask&(1<<uint(i)) != 0 {
				env[v] = true
				selected = append(selected, name)
			}
		}
		if f.Eval(env) {
			out = append(out, selected)
		}
	}
	return out
}

// randomSmallModel builds a deterministic random model with at most 12
// features for brute-force comparison.
func randomSmallModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	nameID := 0
	nextName := func() string {
		nameID++
		return "f" + string(rune('a'+nameID/10)) + string(rune('0'+nameID%10))
	}
	root := &Feature{Name: "root", Group: GroupAnd}
	count := 1
	var build func(parent *Feature, budget int) int
	build = func(parent *Feature, budget int) int {
		if budget <= 0 {
			return 0
		}
		nc := 1 + rng.Intn(3)
		if nc > budget {
			nc = budget
		}
		switch rng.Intn(3) {
		case 0:
			parent.Group = GroupOr
		case 1:
			parent.Group = GroupXor
		default:
			parent.Group = GroupAnd
		}
		used := 0
		for i := 0; i < nc; i++ {
			c := &Feature{Name: nextName(), Group: GroupAnd}
			if parent.Group == GroupAnd && rng.Intn(2) == 0 {
				c.Mandatory = true
			}
			if rng.Intn(4) == 0 {
				c.Abstract = true
			}
			parent.Children = append(parent.Children, c)
			used++
			if rng.Intn(2) == 0 && budget-used > 0 {
				used += build(c, (budget-used)/2)
			}
		}
		return used
	}
	count += build(root, 9)
	_ = count

	// gather leaves for a couple of constraints
	var names []string
	var walk func(f *Feature)
	walk = func(f *Feature) {
		if f.Name != "root" {
			names = append(names, f.Name)
		}
		for _, c := range f.Children {
			walk(c)
		}
	}
	walk(root)
	var constraints []*Expr
	if len(names) >= 2 {
		for i := 0; i < 2; i++ {
			a := names[rng.Intn(len(names))]
			b := names[rng.Intn(len(names))]
			if a == b {
				continue
			}
			if rng.Intn(2) == 0 {
				constraints = append(constraints, Implies(Var(a), Var(b)))
			} else {
				constraints = append(constraints, Implies(Var(a), Not(Var(b))))
			}
		}
	}
	m, err := NewModel(root, constraints...)
	if err != nil {
		panic(err)
	}
	return m
}

func TestPropertyCountAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := randomSmallModel(seed)
		if len(m.Names()) > 14 {
			continue
		}
		want := len(bruteForceProducts(t, m))
		got, complete := NewAnalyzer(m).CountProducts(0)
		if !complete {
			t.Fatalf("seed %d: counting incomplete", seed)
		}
		if got != want {
			t.Errorf("seed %d: CountProducts = %d, brute force = %d\nmodel:\n%s",
				seed, got, want, m.Format())
		}
	}
}

func TestPropertyEnumerationMatchesValidity(t *testing.T) {
	for seed := int64(40); seed < 60; seed++ {
		m := randomSmallModel(seed)
		a := NewAnalyzer(m)
		products, complete := a.EnumerateProducts(0)
		if !complete {
			t.Fatalf("seed %d: enumeration incomplete", seed)
		}
		for _, p := range products {
			if c := m.Conflict(ConfigOf(p...)); c != nil {
				t.Errorf("seed %d: enumerated product %v rejected by Conflict: %v", seed, p, c)
			}
		}
		// spot-check some invalid configurations
		rng := rand.New(rand.NewSource(seed))
		names := m.Names()
		for i := 0; i < 10; i++ {
			mask := rng.Uint64() & (1<<uint(len(names)) - 1)
			cfg := make(Configuration)
			var sorted []string
			for j, n := range names {
				if mask&(1<<uint(j)) != 0 {
					cfg[n] = true
					sorted = append(sorted, n)
				}
			}
			inEnum := false
			for _, p := range products {
				if equalStrings(p, sortedCopy(sorted)) {
					inEnum = true
					break
				}
			}
			if got := m.Conflict(cfg) == nil; got != inEnum {
				t.Errorf("seed %d: Conflict(%v) == nil is %v but enumeration says %v",
					seed, sorted, got, inEnum)
			}
		}
	}
}

func TestPropertyDeadAndCoreConsistent(t *testing.T) {
	for seed := int64(60); seed < 80; seed++ {
		m := randomSmallModel(seed)
		a := NewAnalyzer(m)
		if a.IsVoid() {
			continue
		}
		products, _ := NewAnalyzer(m).EnumerateProducts(0)
		inSome := make(map[string]bool)
		inAll := make(map[string]int)
		for _, p := range products {
			for _, f := range p {
				inSome[f] = true
				inAll[f]++
			}
		}
		for _, d := range a.DeadFeatures() {
			if inSome[d] {
				t.Errorf("seed %d: dead feature %s appears in a product", seed, d)
			}
		}
		for _, c := range a.CoreFeatures() {
			if inAll[c] != len(products) {
				t.Errorf("seed %d: core feature %s missing from some product", seed, c)
			}
		}
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
