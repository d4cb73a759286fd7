package constraints

// Cross-validation of family-based lifted checking against the
// enumerative pipeline: for every corpus (the paper's running example,
// the E6 truncation corpus, randomized conform product lines) the
// lifted checker must find everything per-product enumeration finds
// (completeness), and every lifted finding's decoded witness
// configuration must be a real product that concretely exhibits the
// violation (soundness). Verdicts — "the product line is clean" — must
// agree exactly.

import (
	"reflect"
	"strings"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/conform"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// famKeys maps family name → set of violation keys.
type famKeys map[string]map[string]bool

func (fk famKeys) add(family, key string) {
	if fk[family] == nil {
		fk[family] = make(map[string]bool)
	}
	fk[family][key] = true
}

func (fk famKeys) has(family, key string) bool { return fk[family][key] }

func (fk famKeys) empty() bool {
	for _, s := range fk {
		if len(s) > 0 {
			return false
		}
	}
	return true
}

// enumerativeKeys runs every concrete family checker over one product
// tree and returns the violation key sets.
func enumerativeKeys(t *testing.T, tree *dts.Tree, schemas *schema.Set) famKeys {
	t.Helper()
	keys := make(famKeys)

	sc := NewSemanticChecker()
	_, violations := sc.Check(tree)
	for _, v := range violations {
		switch v.Rule {
		case "semantic:overlap":
			keys.add("semantic-overlap", v.Path+"|"+v.Message)
		case "semantic:regions":
			keys.add("semantic-regions", v.Message)
		}
	}

	for _, v := range NewSyntacticChecker(schemas).Check(tree) {
		keys.add("schema", v.Path+"|"+v.Property+"|"+v.Rule+"|"+v.Message)
	}
	for _, v := range (InterruptChecker{}).Check(tree) {
		keys.add("interrupt", v.Path+"|"+v.Message)
	}
	for _, v := range (MemReserveChecker{}).Check(tree) {
		keys.add("memreserve", v.Rule+"|"+v.Message)
	}
	return keys
}

// liftedKeys classifies lifted findings into the same key space.
func liftedKeys(t *testing.T, findings []LiftedFinding) famKeys {
	t.Helper()
	keys := make(famKeys)
	for _, f := range findings {
		v := f.Violation
		switch {
		case f.Family == "semantic" && v.Rule == "semantic:overlap":
			keys.add("semantic-overlap", v.Path+"|"+v.Message)
		case f.Family == "semantic" && v.Rule == "semantic:regions":
			keys.add("semantic-regions", v.Message)
		case v.Rule == "lifted:interp-contexts" || v.Rule == "lifted:schema-worlds":
			t.Errorf("corpus unexpectedly hit a lifted coverage cap: %s", f)
		case f.Family == "schema":
			keys.add("schema", v.Path+"|"+v.Property+"|"+v.Rule+"|"+v.Message)
		case f.Family == "interrupt":
			keys.add("interrupt", v.Path+"|"+v.Message)
		case f.Family == "memreserve":
			keys.add("memreserve", v.Rule+"|"+v.Message)
		case f.Family == "apply":
			keys.add("apply", v.Path+"|"+v.Message)
		default:
			t.Errorf("lifted finding with unknown family %q: %s", f.Family, f)
		}
	}
	return keys
}

func productKey(names []string) string {
	cp := append([]string(nil), names...)
	for i := 1; i < len(cp); i++ { // insertion sort; inputs are tiny
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return strings.Join(cp, ",")
}

// crossValidate is the harness: enumerate all products, check each
// concretely, lift once, and compare.
func crossValidate(t *testing.T, label string, core *dts.Tree, set *delta.Set, model *featmodel.Model, schemas *schema.Set) {
	t.Helper()

	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	if !complete {
		t.Fatalf("%s: product enumeration incomplete", label)
	}

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatalf("%s: lift: %v", label, err)
	}
	lc := NewLiftedChecker(model, schemas)
	findings, cerr := lc.CheckContext(t.Context(), lifted)
	if cerr != nil {
		t.Fatalf("%s: lifted check: %v", label, cerr)
	}
	lKeys := liftedKeys(t, findings)

	// Enumerative arm: per-product key sets plus apply failures.
	perProduct := make(map[string]famKeys)
	regionsErr := make(map[string]bool)
	applyFails := make(map[string]bool)
	anyViolation := false
	for _, p := range products {
		cfg := featmodel.ConfigOf(p...)
		pk := productKey(p)
		tree, _, aerr := set.Apply(core, cfg)
		if aerr != nil {
			applyFails[pk] = true
			anyViolation = true
			continue
		}
		keys := enumerativeKeys(t, tree, schemas)
		perProduct[pk] = keys
		if _, rerr := addr.CollectRegions(tree); rerr != nil {
			regionsErr[pk] = true
		}
		if !keys.empty() {
			anyViolation = true
		}

		// Completeness: every enumerative violation must appear in the
		// lifted result (same key).
		for family, ks := range keys {
			for key := range ks {
				if !lKeys.has(family, key) {
					t.Errorf("%s: product %v: enumerative %s violation missing from lifted result: %s",
						label, cfg.Sorted(), family, key)
				}
			}
		}
	}
	if len(applyFails) > 0 && len(lKeys["apply"]) == 0 {
		t.Errorf("%s: %d products fail delta application but lifted reports no apply conflict",
			label, len(applyFails))
	}

	// Soundness: each lifted finding's decoded witness must be a valid
	// product exhibiting the violation. Witnesses that land on
	// apply-broken products (possible in randomized corpora, where the
	// merged value at a double-add is don't-care) are excused — the
	// enumerative semantics of such products is undefined.
	for _, f := range findings {
		pk := productKey(f.Config.Sorted())
		if !applyFails[pk] {
			if _, ok := perProduct[pk]; !ok {
				t.Errorf("%s: finding %s: decoded config is not a valid product", label, f)
				continue
			}
		}
		if len(lifted.ActiveConflicts(f.Config)) > 0 {
			if f.Family != "apply" && !applyFails[pk] {
				t.Errorf("%s: finding %s: lifted conflicts active but product applies cleanly", label, f)
			}
			continue
		}
		keys := perProduct[pk]
		v := f.Violation
		switch {
		case f.Family == "apply":
			t.Errorf("%s: apply finding %s: witness product applies cleanly", label, f)
		case f.Family == "semantic" && v.Rule == "semantic:regions":
			if !regionsErr[pk] {
				t.Errorf("%s: finding %s: witness product has no region-decoding error", label, f)
			}
		case f.Family == "semantic":
			if !keys.has("semantic-overlap", v.Path+"|"+v.Message) {
				t.Errorf("%s: finding %s: not reproduced by concrete semantic check of witness product", label, f)
			}
		case f.Family == "schema":
			if !keys.has("schema", v.Path+"|"+v.Property+"|"+v.Rule+"|"+v.Message) {
				t.Errorf("%s: finding %s: not reproduced by concrete schema check of witness product", label, f)
			}
		case f.Family == "interrupt":
			if !keys.has("interrupt", v.Path+"|"+v.Message) {
				t.Errorf("%s: finding %s: not reproduced by concrete interrupt check of witness product", label, f)
			}
		case f.Family == "memreserve":
			if !keys.has("memreserve", v.Rule+"|"+v.Message) {
				t.Errorf("%s: finding %s: not reproduced by concrete memreserve check of witness product", label, f)
			}
		}
	}

	// Verdict equivalence: clean family-wide iff clean per product.
	if (len(findings) == 0) != !anyViolation {
		t.Errorf("%s: verdict mismatch: lifted reports %d findings, enumeration found violations: %v",
			label, len(findings), anyViolation)
	}
}

func TestLiftedMatchesEnumerativeRunningExample(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	crossValidate(t, "running-example", core, set, model, schema.StandardSet())
}

// TestLiftedMatchesEnumerativeE6 repeats the comparison on the paper's
// truncation corpus (delta d4 omitted), whose products exhibit a
// four-bank memory layout with a collision at 0x0.
func TestLiftedMatchesEnumerativeE6(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	var kept []*delta.Delta
	for _, d := range set.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	smaller, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	crossValidate(t, "e6", core, smaller, model, schema.StandardSet())

	// The E6 corpus is the collision corpus: the lifted run must
	// actually find overlaps, not vacuously agree on emptiness.
	lifted, err := smaller.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schema.StandardSet())
	findings, err := lc.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	overlaps := 0
	for _, f := range findings {
		if f.Violation.Rule == "semantic:overlap" {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Error("e6: lifted check found no overlap violations on the collision corpus")
	}
}

// conformModel is the feature model of the conform generator's space:
// three independent optional features.
func conformModel(t *testing.T) *featmodel.Model {
	t.Helper()
	root := &featmodel.Feature{Name: "root", Abstract: true, Group: featmodel.GroupAnd}
	for _, f := range conform.Features {
		root.Children = append(root.Children, &featmodel.Feature{Name: f, Group: featmodel.GroupAnd})
	}
	m, err := featmodel.NewModel(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLiftedMatchesEnumerativeConform cross-validates over randomized
// conform product lines: every generated delta set, all 8
// configurations of the 3-feature space.
func TestLiftedMatchesEnumerativeConform(t *testing.T) {
	model := conformModel(t)
	cases := 0
	for seed := int64(0); seed < 30; seed++ {
		c := conform.GenerateCase(seed)
		if c.Deltas == "" {
			continue
		}
		core, err := conform.ParseOracle("gen.dts", c.Source)
		if err != nil {
			t.Fatalf("seed %d: core does not parse: %v", seed, err)
		}
		set, err := delta.Parse("gen.deltas", c.Deltas)
		if err != nil {
			t.Fatalf("seed %d: deltas do not parse: %v", seed, err)
		}
		crossValidate(t, "conform-"+string(rune('0'+seed%10))+"-seed", core, set, model, schema.StandardSet())
		cases++
	}
	if cases < 20 {
		t.Fatalf("only %d conform corpora ran; generator drift?", cases)
	}
}

// TestLiftedMemReserveReportsLeastUncovered pins the containment guard
// "p is uncovered and every earlier candidate is covered". Both banks
// of memory@0 exist only under fa, so without fa the reserve is
// uncovered from 0x800 on and 0x1000 is uncovered but never the least
// uncovered address of any product: it must not be reported, and the
// witness of 0x800 must lack fa.
func TestLiftedMemReserveReportsLeastUncovered(t *testing.T) {
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/memreserve/ 0x800 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("mem.deltas", `
delta dmem when fa {
    adds binding soc {
        memory@0 {
            device_type = "memory";
            reg = <0x0 0x1000 0x1000 0x800>;
        };
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model := conformModel(t)
	crossValidate(t, "least-uncovered", core, set, model, schema.StandardSet())

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := NewLiftedChecker(model, schema.StandardSet()).CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.Family == "memreserve" {
			got = append(got, f.Violation.Message)
			if f.Config["fa"] {
				t.Errorf("witness %v of %s selects fa, whose banks cover the reserve", f.Config.Sorted(), f)
			}
		}
	}
	want := []string{"/memreserve/ 0 (0x800+0x1000) covers address 0x800 outside every memory bank"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memreserve findings = %q, want %q", got, want)
	}
}

// TestLiftedStatsAccounting pins the observability contract: queries
// counted, word tier engaged, session shared.
func TestLiftedStatsAccounting(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schema.StandardSet())
	if _, err := lc.CheckContext(t.Context(), lifted); err != nil {
		t.Fatal(err)
	}
	st := lc.LastStats()
	if st.Queries == 0 {
		t.Error("lifted check issued no SAT queries")
	}
	if st.WordDecided == 0 {
		t.Error("word tier decided no pairs on the running example")
	}
	if st.Regions == 0 {
		t.Error("no lifted regions collected")
	}
}
