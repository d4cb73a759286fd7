package featmodel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// projectedModels enumerates the models of s projected onto vars,
// blocking each projection once found, as strings of '0'/'1' in vars
// order. It reports false when there are more than limit.
func projectedModels(s *sat.Solver, vars []logic.Var, limit int) (map[string]bool, bool) {
	out := make(map[string]bool)
	key := make([]byte, len(vars))
	block := make([]logic.Lit, len(vars))
	for s.Solve() == sat.Sat {
		if len(out) == limit {
			return out, false
		}
		for i, v := range vars {
			key[i], block[i] = '0', logic.Lit(v)
			if s.Value(v) {
				key[i], block[i] = '1', -logic.Lit(v)
			}
		}
		out[string(key)] = true
		if !s.AddClause(block...) {
			break
		}
	}
	return out, true
}

// encodingMatchesOracle enumerates the models of the direct encoding
// and of the ToFormula→ToCNF oracle, both projected onto the feature
// variables, and fails t unless the two sets are equal: for vms = 0
// the model's own (AppendClauses), otherwise those of a vms-VM
// MultiModel, platform copies included. It returns the number of
// models, and false when either side has more than limit.
func encodingMatchesOracle(t testing.TB, m *Model, vms, limit int) (int, bool) {
	t.Helper()
	var pool logic.Pool
	var arena []logic.Lit
	var f *logic.Formula
	var err, oerr error
	var encVars, oracleVars []logic.Var
	opool := logic.NewPool()
	vm := NewVarMap(opool)
	if vms == 0 {
		arena, err = m.AppendClauses(nil, &pool)
		f, oerr = m.ToFormula(vm, "")
		for i, name := range m.order {
			encVars = append(encVars, logic.Var(i+1))
			oracleVars = append(oracleVars, vm.Var(name))
		}
	} else {
		mm, merr := NewMultiModel(m, vms)
		if merr != nil {
			t.Fatal(merr)
		}
		arena, err = mm.AppendClauses(nil, &pool)
		f, oerr = mm.ToFormula(vm)
		width := m.enc.numVars
		for k := 0; k <= vms; k++ {
			prefix := PlatformPrefix
			if k < vms {
				prefix = VMPrefix(k + 1)
			}
			for i, name := range m.order {
				encVars = append(encVars, logic.Var(k*width+i+1))
				oracleVars = append(oracleVars, vm.Var(prefix+name))
			}
		}
	}
	if err != nil || oerr != nil {
		t.Fatalf("encoding: %v, oracle: %v", err, oerr)
	}
	s := sat.New()
	s.AddClauses(pool.NumVars(), arena)
	o := sat.New()
	o.AddCNF(logic.ToCNF(f, opool))
	got, ok := projectedModels(s, encVars, limit)
	want, wok := projectedModels(o, oracleVars, limit)
	if !ok || !wok {
		return 0, false
	}
	for key := range got {
		if !want[key] {
			t.Fatalf("%d VMs: encoding admits %s, the oracle does not\n%s", vms, key, m.Format())
		}
	}
	for key := range want {
		if !got[key] {
			t.Fatalf("%d VMs: oracle admits %s, the encoding does not\n%s", vms, key, m.Format())
		}
	}
	return len(got), true
}

// randomEncodingModel extends randomSmallModel(seed) with what its
// models never reach on their own: Exclusive leaves, marked as
// TestConflictMatchesCNFOracle marks them; half the time an optional
// XOR group of five or six features, large enough for the sequential
// counter; and a guard-shaped cross-tree
// constraint, often not a clause, so Tseitin encodes it.
func randomEncodingModel(seed int64) *Model {
	m := randomSmallModel(seed)
	rng := rand.New(rand.NewSource(seed))
	for _, n := range m.Names() {
		if f := m.Feature(n); len(f.Children) == 0 && rng.Intn(2) == 0 {
			f.Exclusive = true
		}
	}
	var members []string
	if rng.Intn(2) == 0 {
		for i := range 5 + rng.Intn(2) {
			members = append(members, fmt.Sprintf("x%d", i))
		}
	}
	extended, err := m.AddVirtualGroup("xs", GroupXor, members, randomGuard(rng, m.Names(), 2))
	if err != nil {
		panic(err)
	}
	return extended
}

// checkAllVMCounts runs encodingMatchesOracle on m alone and for 1 to
// maxVMs VMs, stopping when the models would exceed limit. It returns
// the number of comparisons made.
func checkAllVMCounts(t testing.TB, m *Model, maxVMs, limit int) int {
	t.Helper()
	products, ok := encodingMatchesOracle(t, m, 0, limit)
	if !ok {
		return 0
	}
	ran, bound := 1, 1
	for vms := 1; vms <= maxVMs; vms++ {
		if bound *= products; bound > limit {
			break
		}
		if _, ok := encodingMatchesOracle(t, m, vms, limit); ok {
			ran++
		}
	}
	return ran
}

// TestEncodingMatchesFormulaOracle holds the direct encoding to the
// formula it replaced: on the paper's model, the exclusive-units model,
// six exclusive units over five VMs (the sequential counter across
// VMs), and the random models of randomEncodingModel, brute-force
// enumeration must find the same models, projected onto the feature
// variables, for AppendClauses as for ToFormula through logic.ToCNF,
// alone and for 1–3 VMs.
func TestEncodingMatchesFormulaOracle(t *testing.T) {
	units := &Feature{Name: "units", Abstract: true, Mandatory: true, Group: GroupXor}
	for i := range 6 {
		units.Children = append(units.Children, &Feature{Name: fmt.Sprintf("u%d", i), Exclusive: true})
	}
	sixUnits, err := NewModel(&Feature{Name: "r", Children: []*Feature{units}})
	if err != nil {
		t.Fatal(err)
	}
	if n := checkAllVMCounts(t, sixUnits, 5, 8192); n != 6 {
		t.Fatalf("six units: %d comparisons, want 6 (alone and 1–5 VMs)", n)
	}
	ran := checkAllVMCounts(t, paperModel(t), 3, 4096) + checkAllVMCounts(t, exclusiveModel(t), 3, 4096)
	withAux := 0
	for seed := int64(0); seed < 60; seed++ {
		m := randomEncodingModel(seed)
		ran += checkAllVMCounts(t, m, 3, 4096)
		if enc, _ := m.Encoding(); enc.numVars > len(m.order) {
			withAux++
		}
	}
	if ran < 120 {
		t.Errorf("only %d comparisons ran, want >= 120", ran)
	}
	if withAux < 20 {
		t.Errorf("only %d random models have auxiliary variables, want >= 20", withAux)
	}
}

// FuzzModelEncoding is the go-fuzz face of
// TestEncodingMatchesFormulaOracle over the same generator.
func FuzzModelEncoding(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, vms uint8) {
		checkAllVMCounts(t, randomEncodingModel(seed), 1+int(vms%3), 2048)
	})
}

// TestXorEncodingIsLinear pins the linear at-most-one: a 10,000-child
// XOR group and an exclusive feature over 2,000 VMs each encode in
// O(n) clauses and variables, where the pairwise encoding needs ~n²/2
// clauses, and the counter still allows exactly one choice.
func TestXorEncodingIsLinear(t *testing.T) {
	const n = 10_000
	root := &Feature{Name: "r", Group: GroupXor}
	for i := range n {
		root.Children = append(root.Children, &Feature{Name: fmt.Sprintf("c%d", i), Exclusive: true})
	}
	m, err := NewModel(root)
	if err != nil {
		t.Fatal(err)
	}
	clauses := func(arena []logic.Lit) int {
		k := 0
		for _, l := range arena {
			if l == 0 {
				k++
			}
		}
		return k
	}
	var pool logic.Pool
	arena, err := m.AppendClauses(nil, &pool)
	if err != nil {
		t.Fatal(err)
	}
	if c, v := clauses(arena), pool.NumVars(); c > 4*n || v > 2*n+1 {
		t.Errorf("%d-child XOR group: %d clauses over %d variables, want <= %d and <= %d", n, c, v, 4*n, 2*n+1)
	}
	pe := NewPresenceEncoder(m)
	if pe.Solve(pe.FeatureLit("c17")) != sat.Sat || pe.Solve(pe.FeatureLit("c17"), pe.FeatureLit(fmt.Sprintf("c%d", n-1))) != sat.Unsat {
		t.Error("sequential counter does not allow exactly one child")
	}

	const vms = 2_000
	one, err := NewModel(&Feature{Name: "r", Children: []*Feature{{Name: "e", Exclusive: true}}})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMultiModel(one, vms)
	if err != nil {
		t.Fatal(err)
	}
	pool = logic.Pool{}
	if arena, err = mm.AppendClauses(nil, &pool); err != nil {
		t.Fatal(err)
	}
	if c := clauses(arena); c > 10*vms {
		t.Errorf("exclusive feature over %d VMs: %d clauses, want <= %d", vms, c, 10*vms)
	}
}

// TestEncodingConcurrentUse shares one fresh model between goroutines
// that each seed a session from it, as concurrent checks of one cached
// model would: the encoding is built once and only read afterwards
// (run under -race).
func TestEncodingConcurrentUse(t *testing.T) {
	m := paperModel(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16) // at most two sends per goroutine
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe := NewPresenceEncoder(m)
			if pe.Solve(pe.FeatureLit("veth0"), pe.FeatureLit("cpu@1")) != sat.Unsat {
				errs <- fmt.Errorf("veth0 with cpu@1 is satisfiable")
			}
			if n, _ := NewAnalyzer(m).CountProducts(0); n != 12 {
				errs <- fmt.Errorf("%d products, want 12", n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
