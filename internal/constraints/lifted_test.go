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
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"llhsc/internal/conform"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
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
			keys.add("semantic-regions", v.Path+"|"+v.Message)
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
			keys.add("semantic-regions", v.Path+"|"+v.Message)
		case v.Rule == "lifted:interp-contexts":
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

// findingKey is a lifted finding without its witness and origin
// position: what the two guard algebras must agree on.
type findingKey struct {
	family, path, property, rule, message string
}

// checkBothAlgebras runs the lifted check of lt under both guard
// algebras: the default, which holds a line whose feature tree allows
// at most 64 configurations as product sets, and the SAT session the unexported
// session field forces. Their findings must agree in family, path,
// property, rule and message, in order. It returns both finding lists,
// default first; the witnesses may differ.
func checkBothAlgebras(t *testing.T, label string, model *featmodel.Model, schemas *schema.Set, lt *delta.LiftedTree) (sets, session []LiftedFinding) {
	t.Helper()
	var keys [2][]findingKey
	var out [2][]LiftedFinding
	for i, lc := range []*LiftedChecker{
		NewLiftedChecker(model, schemas),
		{Model: model, Schemas: schemas, session: true},
	} {
		findings, err := lc.CheckContext(t.Context(), lt)
		if err != nil {
			t.Fatalf("%s: lifted check (session %v): %v", label, lc.session, err)
		}
		if st := lc.LastStats(); lc.session && st.Products != 0 {
			t.Errorf("%s: forced session answered over %d products", label, st.Products)
		}
		for _, f := range findings {
			v := f.Violation
			keys[i] = append(keys[i], findingKey{f.Family, v.Path, v.Property, v.Rule, v.Message})
		}
		out[i] = findings
	}
	if !reflect.DeepEqual(keys[0], keys[1]) {
		t.Errorf("%s: the guard algebras disagree:\n  default %v\n  session %v", label, keys[0], keys[1])
	}
	return out[0], out[1]
}

// crossValidate is the harness: enumerate all products, check each
// concretely, lift once, check it under both guard algebras, and
// compare.
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
	findings, sessionFindings := checkBothAlgebras(t, label, model, schemas, lifted)
	lKeys := liftedKeys(t, findings)

	// Enumerative arm: per-product key sets plus apply failures.
	perProduct := make(map[string]famKeys)
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

	// Soundness: each lifted finding's decoded witness, under either
	// algebra, must be a valid product exhibiting the violation.
	// Witnesses that land on apply-broken products (possible in
	// randomized corpora, where the merged value at a double-add is
	// don't-care) are excused — the enumerative semantics of such
	// products is undefined.
	for _, f := range slices.Concat(findings, sessionFindings) {
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
			if !keys.has("semantic-regions", v.Path+"|"+v.Message) {
				t.Errorf("%s: finding %s: not among the region-decoding errors of the witness product", label, f)
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

// perProductKey is one violation as the per-product comparison sees it:
// the family that reported it and every field but the origin's
// position.
type perProductKey struct {
	family, path, property, rule, message, delta string
}

func perProductKeyOf(family string, v Violation) perProductKey {
	return perProductKey{family, v.Path, v.Property, v.Rule, v.Message, v.Origin.Delta}
}

// restrictModel returns model with every feature fixed to its value in
// cfg, so that cfg is its one valid configuration.
func restrictModel(t *testing.T, model *featmodel.Model, cfg featmodel.Configuration) *featmodel.Model {
	t.Helper()
	var b strings.Builder
	b.WriteString(model.Format())
	for _, name := range model.Names() {
		b.WriteString("constraint ")
		if !cfg[name] {
			b.WriteString("!")
		}
		b.WriteString(name + "\n")
	}
	restricted, err := featmodel.ParseModel("restricted.fm", b.String())
	if err != nil {
		t.Fatalf("restrict model to %v: %v", cfg.Sorted(), err)
	}
	return restricted
}

// perProductValidate checks the product line one configuration at a
// time: for every valid configuration c, the lifted check under the
// model restricted to c must report exactly the violations the
// per-tree families (Families) report on the product derived for c,
// and an apply finding exactly when deriving c fails. This is the
// product check as the lifted check restricted to one configuration,
// stronger than crossValidate's comparison of unions over all products.
func perProductValidate(t *testing.T, label string, core *dts.Tree, set *delta.Set, model *featmodel.Model, schemas *schema.Set) {
	t.Helper()
	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	if !complete || len(products) == 0 {
		t.Fatalf("%s: product enumeration incomplete or empty", label)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatalf("%s: lift: %v", label, err)
	}
	for _, p := range products {
		cfg := featmodel.ConfigOf(p...)
		findings, _ := checkBothAlgebras(t, fmt.Sprintf("%s %v", label, p), restrictModel(t, model, cfg), schemas, lifted)
		got := make(map[perProductKey]bool)
		applyFindings := 0
		for _, f := range findings {
			if f.Family == "apply" {
				applyFindings++
				continue
			}
			family := f.Family
			if family == "schema" {
				family = "syntactic" // the lifted name of the syntactic family
			}
			got[perProductKeyOf(family, f.Violation)] = true
		}

		tree, _, aerr := set.Apply(core, cfg)
		if (aerr != nil) != (applyFindings > 0) {
			t.Errorf("%s %v: Apply error %v, but %d lifted apply findings", label, p, aerr, applyFindings)
		}
		if aerr != nil {
			continue // no product to check
		}
		want := make(map[perProductKey]bool)
		facts := &TreeFacts{Tree: tree}
		for _, fam := range Families {
			vs, _, err := fam.Check(t.Context(), schemas, facts)
			if err != nil {
				t.Fatalf("%s %v: %s family: %v", label, p, fam.Name, err)
			}
			for _, v := range vs {
				want[perProductKeyOf(fam.Name, v)] = true
			}
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s %v: enumerative violation missing from the restricted lifted check: %+v", label, p, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s %v: restricted lifted finding not reported by the per-tree families: %+v", label, p, k)
			}
		}
	}
}

// TestLiftedMatchesEnumerativePerProduct runs perProductValidate over
// the running example, the E6 corpus (d4 omitted), the conform seeds of
// TestLiftedMatchesEnumerativeConform and TestLiftedSchemaPerProperty's
// 128 products, where the deltas that edit /soc/strict@100 decide which
// one a required-property miss blames.
func TestLiftedMatchesEnumerativePerProduct(t *testing.T) {
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
	perProductValidate(t, "running-example", core, set, model, schema.StandardSet())

	var kept []*delta.Delta
	for _, d := range set.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	e6, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	perProductValidate(t, "e6", core, e6, model, schema.StandardSet())

	spCore, spSet, spModel, spSchemas := schemaPerPropertyLine(t)
	perProductValidate(t, "schema-per-property", spCore, spSet, spModel, spSchemas)
	rcCore, rcSet, rcModel := recreatedLine(t, 4)
	perProductValidate(t, "recreated", rcCore, rcSet, rcModel, spSchemas)

	model = conformModel(t)
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
		perProductValidate(t, fmt.Sprintf("conform seed %d", seed), core, set, model, schema.StandardSet())
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

// liftedRunningExample returns the running example's feature model
// and its merged tree.
func liftedRunningExample(tb testing.TB) (*featmodel.Model, *delta.LiftedTree) {
	tb.Helper()
	model, err := runningexample.Model()
	if err != nil {
		tb.Fatal(err)
	}
	return model, liftRunningExample(tb)
}

// liftedSpareExample is liftedRunningExample with three spare optional
// features in the model (runningexample.SpareModel): the same merged
// tree over 96 valid products, past the 64 a lifted check holds as
// product sets, so it checks in a SAT session.
func liftedSpareExample(tb testing.TB) (*featmodel.Model, *delta.LiftedTree) {
	tb.Helper()
	model, err := runningexample.SpareModel(3)
	if err != nil {
		tb.Fatal(err)
	}
	return model, liftRunningExample(tb)
}

func liftRunningExample(tb testing.TB) *delta.LiftedTree {
	tb.Helper()
	core, err := runningexample.Tree()
	if err != nil {
		tb.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		tb.Fatal(err)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		tb.Fatal(err)
	}
	return lifted
}

// TestLiftedStatsAccounting pins the observability contract: on the
// running example's 12 products the guards range over product sets
// and no query is asked; on the same line past 64 products, queries
// are counted and the session is shared; the word tier is engaged and
// regions are collected either way.
func TestLiftedStatsAccounting(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	if _, err := lc.CheckContext(t.Context(), lifted); err != nil {
		t.Fatal(err)
	}
	sets := lc.LastStats()
	if sets.Products != runningexample.ProductCount || sets.Sessions != 0 || sets.Queries != 0 || sets.Pruned != 0 {
		t.Errorf("running example: %d products, %d sessions, %d queries, %d pruned; want %d, 0, 0, 0",
			sets.Products, sets.Sessions, sets.Queries, sets.Pruned, runningexample.ProductCount)
	}

	model, lifted = liftedSpareExample(t)
	lc = NewLiftedChecker(model, schema.StandardSet())
	if _, err := lc.CheckContext(t.Context(), lifted); err != nil {
		t.Fatal(err)
	}
	st := lc.LastStats()
	if st.Products != 0 || st.Sessions != 1 {
		t.Errorf("96-product line: %d products, %d sessions; want 0 and 1", st.Products, st.Sessions)
	}
	if st.Queries == 0 {
		t.Error("lifted check issued no SAT queries")
	}
	for _, st := range []LiftedStats{sets, st} {
		if st.WordDecided == 0 {
			t.Error("word tier decided no pairs on the running example")
		}
		if st.Regions == 0 {
			t.Error("no lifted regions collected")
		}
	}
}

// TestLiftedSessionStaysSmall pins the session's growth on the running
// example past 64 products: guards are posed as assumption sets, so
// conjunctions never become clauses, and the session holds the feature
// model's direct encoding plus one definition per non-conjunctive atom
// (36 clauses, as without the spares, whose clauses the root's unit
// clause satisfies). On the running example itself there is no session
// at all.
func TestLiftedSessionStaysSmall(t *testing.T) {
	model, lifted := liftedSpareExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	if _, err := lc.CheckContext(t.Context(), lifted); err != nil {
		t.Fatal(err)
	}
	if st := lc.LastStats(); st.Queries == 0 || st.Solver.Clauses > 60 {
		t.Errorf("lifted session ends at %d clauses after %d queries, want <= 60 after some", st.Solver.Clauses, st.Queries)
	}

	model, lifted = liftedRunningExample(t)
	lc = NewLiftedChecker(model, schema.StandardSet())
	if _, err := lc.CheckContext(t.Context(), lifted); err != nil {
		t.Fatal(err)
	}
	if st := lc.LastStats(); st.Products != runningexample.ProductCount || st.Solver != (sat.Stats{}) {
		t.Errorf("running example: %d products and solver work %+v, want %d and none", st.Products, st.Solver, runningexample.ProductCount)
	}
}

// TestLiftedChecksReachabilityFirst pins reachability before work: the
// model forbids fa ∧ fb, and each case below exists only there, next to
// a reachable twin under fc (fb ∧ fc is allowed).
//
//   - soc/uart@1000's reg decodes (and passes the reg arity rule) under
//     soc's own cells, but not under the #address-cells fb sets;
//     soc/uart@3000 is its twin.
//   - uart@108 overlaps uart@100 but exists only under fa ∧ fb; uart@10c
//     is its twin.
//
// The forbidden cases must not be reported, the twins must, the lifted
// findings must be exactly the union over every valid product, and
// Regions must count only the variants whose reg guard is reachable.
func TestLiftedChecksReachabilityFirst(t *testing.T) {
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	uart@100 {
		compatible = "ns16550a";
		reg = <0x100 0x10>;
	};
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("reach.deltas", `
delta wide when fb {
    modifies soc {
        #address-cells = <2>;
    }
}

delta forbidden when fa {
    adds binding soc {
        uart@1000 {
            compatible = "ns16550a";
            reg = <0x1000 0x10 0x2000 0x10>;
        };
    }
}

delta allowed when fc {
    adds binding soc {
        uart@3000 {
            compatible = "ns16550a";
            reg = <0x3000 0x10 0x4000 0x10>;
        };
    }
}

delta ghost when fa && fb {
    adds binding / {
        uart@108 {
            compatible = "ns16550a";
            reg = <0x108 0x10>;
        };
    }
}

delta twin when fc {
    adds binding / {
        uart@10c {
            compatible = "ns16550a";
            reg = <0x10c 0x10>;
        };
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.ParseModel("reach.fm", `
feature root abstract {
    feature fa
    feature fb
    feature fc
}
constraint fa -> !fb
`)
	if err != nil {
		t.Fatal(err)
	}
	schemas := schema.StandardSet()
	crossValidate(t, "reachability-first", core, set, model, schemas)

	// The enumerative union over every valid product.
	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	if !complete {
		t.Fatal("product enumeration incomplete")
	}
	union := make(famKeys)
	for _, p := range products {
		tree, _, err := set.Apply(core, featmodel.ConfigOf(p...))
		if err != nil {
			t.Fatalf("product %v: apply: %v", p, err)
		}
		for family, keys := range enumerativeKeys(t, tree, schemas) {
			for key := range keys {
				union.add(family, key)
			}
		}
	}

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schemas)
	findings, err := lc.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	got := liftedKeys(t, findings)
	if !reflect.DeepEqual(got, union) {
		t.Errorf("lifted keys differ from the enumerative union:\n lifted %v\n  union %v", got, union)
	}

	reported := func(path string) bool {
		for _, f := range findings {
			if strings.Contains(f.Violation.Path+" "+f.Violation.Message, path) {
				return true
			}
		}
		return false
	}
	for _, path := range []string{"/soc/uart@1000", "/uart@108"} {
		if reported(path) {
			t.Errorf("%s exists only under the forbidden fa && fb but is reported", path)
		}
	}
	for _, want := range []struct{ path, rule string }{
		{"/soc/uart@3000", "semantic:regions"},
		{"/soc/uart@3000", ":arity:reg"},
		{"/uart@10c", "semantic:overlap"},
	} {
		found := false
		for _, f := range findings {
			v := f.Violation
			if strings.Contains(v.Rule, want.rule) && strings.Contains(v.Path+" "+v.Message, want.path) {
				found = true
			}
		}
		if !found {
			t.Errorf("reachable twin %s: no %s finding in %v", want.path, want.rule, findings)
		}
	}

	// Reachable reg variants: uart@100 and uart@10c once each, and the
	// two regions of uart@1000 and of uart@3000 under soc's own cells.
	if st := lc.LastStats(); st.Regions != 6 {
		t.Errorf("Regions = %d, want 6 (the variants whose reg guard is reachable)", st.Regions)
	}
}

// TestLiftedLeafBuildsNoContexts pins the leaf rule of region
// collection: a node with no children has nothing its cell sizes or
// ranges interpret, so it builds no interpretation context and cannot
// hit the context cap. /soc/dev splits soc's 4 contexts on three
// independent properties of its own (32 combinations, all reachable),
// which used to report a lifted:interp-contexts FAIL naming no rule
// violation; crossValidate rejects any such cap finding.
func TestLiftedLeafBuildsNoContexts(t *testing.T) {
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		dev {
			compatible = "acme,dev";
		};
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("leaf.deltas", `
delta socac when fa {
    modifies soc {
        #address-cells = <2>;
    }
}

delta socsc when fb {
    modifies soc {
        #size-cells = <2>;
    }
}

delta devac when fc {
    modifies dev {
        #address-cells = <2>;
    }
}

delta devsc when fd {
    modifies dev {
        #size-cells = <2>;
    }
}

delta devranges when fe {
    modifies dev {
        ranges;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.ParseModel("leaf.fm", `
feature root abstract {
    feature fa
    feature fb
    feature fc
    feature fd
    feature fe
}
`)
	if err != nil {
		t.Fatal(err)
	}
	crossValidate(t, "leaf-contexts", core, set, model, schema.StandardSet())

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schema.StandardSet())
	findings, err := lc.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("clean product line reports %v", findings)
	}
	// soc's children are interpreted in 1 root context × 2 × 2 cell
	// options of soc; dev, a leaf, adds none.
	if st := lc.LastStats(); st.Contexts != 4 {
		t.Errorf("Contexts = %d, want 4 (soc's child contexts only)", st.Contexts)
	}
}

// TestLiftedLeafRangesStillChecked pins the other half of the leaf
// rule: a leaf builds no context, but its non-empty ranges is still
// parsed, so a malformed one is reported as the same semantic:regions
// finding that addr.CollectRegions gives the enumerative checker, with
// a witness that selects the delta writing it.
func TestLiftedLeafRangesStillChecked(t *testing.T) {
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		bus@0 {
			compatible = "acme,bus";
		};
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("ranges.deltas", `
delta badranges when fb {
    modifies bus@0 {
        ranges = <0x0 0x1000>;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model := conformModel(t)
	crossValidate(t, "leaf-ranges", core, set, model, schema.StandardSet())

	tree, _, err := set.Apply(core, featmodel.ConfigOf("fb"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	_, violations := NewSemanticChecker().Check(tree)
	for _, v := range violations {
		if v.Rule == "semantic:regions" {
			want = append(want, v.Message)
		}
	}
	if len(want) != 1 {
		t.Fatalf("enumerative regions findings = %q, want one", want)
	}

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
		if f.Violation.Rule == "semantic:regions" {
			got = append(got, f.Violation.Message)
			if !f.Config["fb"] {
				t.Errorf("witness %v of %s lacks fb, the only writer of the ranges", f.Config.Sorted(), f)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lifted regions findings = %q, want the enumerative %q", got, want)
	}
}

// regionFindings lists the semantic:regions violations as "path|message".
func regionFindings(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		if v.Rule == "semantic:regions" {
			out = append(out, v.Path+"|"+v.Message)
		}
	}
	return out
}

// TestRegionErrorsReportedPerNode pins region-decoding findings: each
// problem is its own semantic:regions violation at the offending node's
// path, identically in both checking modes. /soc translates only its
// bus addresses 0x0–0x100, so neither child's reg is covered.
func TestRegionErrorsReportedPerNode(t *testing.T) {
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		ranges = <0x0 0x10000 0x100>;
		a@0 {
			reg = <0x1000 0x10>;
		};
		b@0 {
			reg = <0x2000 0x10>;
		};
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("none.deltas", "")
	if err != nil {
		t.Fatal(err)
	}
	model := conformModel(t)
	crossValidate(t, "region-errors", core, set, model, schema.StandardSet())

	want := []string{
		"/soc/a@0|bank 0: address 0x1000 not covered by parent ranges",
		"/soc/b@0|bank 0: address 0x2000 not covered by parent ranges",
	}
	_, violations := NewSemanticChecker().Check(core)
	if got := regionFindings(violations); !reflect.DeepEqual(got, want) {
		t.Errorf("enumerative regions findings = %q, want %q", got, want)
	}

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := NewLiftedChecker(model, schema.StandardSet()).CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	var lvs []Violation
	for _, f := range findings {
		lvs = append(lvs, f.Violation)
	}
	if got := regionFindings(lvs); !reflect.DeepEqual(got, want) {
		t.Errorf("lifted regions findings = %q, want %q", got, want)
	}
}

// schemaPerPropertyLine is TestLiftedSchemaPerProperty's product line:
// its core, deltas, feature model and the differential schemas.
func schemaPerPropertyLine(t *testing.T) (*dts.Tree, *delta.Set, *featmodel.Model, *schema.Set) {
	t.Helper()
	core, err := conform.ParseOracle("core.dts", `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		strict@100 {
			compatible = "ns16550a";
			reg = <0x100 0x10>;
			reg-shift = <2>;
			label = "clk-main";
		};
		clk@200 {
			compatible = "ns16550a";
			reg = <0x200 0x10>;
			clock-output-names = "clk-main";
		};
		shapes@300 {
			mac = [00 11 22 33 44 55];
			vendor-id = <1>;
			mode = "fast";
		};
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("props.deltas", `
delta shift when fshift {
    modifies strict@100 {
        reg-shift = <3>;
    }
}

delta label when flabel {
    modifies strict@100 {
        label = "clk-aux";
    }
}

delta extra when fextra {
    modifies strict@100 {
        vendor,mode = "turbo";
    }
    modifies shapes@300 {
        mode = "turbo";
    }
}

delta noreg when fnoreg {
    removes property strict@100 reg;
}

delta compat when fcompat {
    modifies strict@100 {
        compatible = "acme,strict";
    }
    modifies clk@200 {
        compatible = "veth";
    }
}

delta status when fstatus {
    modifies strict@100 {
        status = "disabled";
    }
    modifies clk@200 {
        clock-output-names = "CLK0";
    }
}

delta wide when fwide {
    modifies soc {
        #address-cells = <2>;
    }
    modifies strict@100 {
        clock-frequency = <1843200>;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.ParseModel("props.fm", `
feature root abstract {
    feature fshift
    feature flabel
    feature fextra
    feature fnoreg
    feature fcompat
    feature fstatus
    feature fwide
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return core, set, model, &schema.Set{Schemas: differentialSchemas(t)}
}

// TestLiftedSchemaPerProperty cross-validates the lifted schema family
// by brute force on a node whose properties vary independently under
// seven optional features: 2^7 = 128 option combinations, which a check
// that enumerated every combination would have to cap. Every feature
// writes or removes one property of /soc/strict@100; fwide also widens
// /soc's #address-cells, so the reg-like rules of strict@100's and
// clk@200's reg are crossed with the parent's cell options. clk@200's
// compatible option switches its schema from ns16550a.yaml to
// veth.yaml. The differential schemas reach additional, integer and
// string const, pattern, enum, required, arity and minItems.
func TestLiftedSchemaPerProperty(t *testing.T) {
	core, set, model, schemas := schemaPerPropertyLine(t)
	crossValidate(t, "schema-per-property", core, set, model, schemas)

	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := NewLiftedChecker(model, schemas).CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ path, rule string }{
		{"/soc/strict@100", "schema:strict.yaml:const:reg-shift"},
		{"/soc/strict@100", "schema:strict.yaml:const:label"},
		{"/soc/strict@100", "schema:strict.yaml:additional:vendor,mode"},
		{"/soc/strict@100", "schema:strict.yaml:additional:clock-frequency"},
		{"/soc/strict@100", "schema:ns16550a.yaml:required:reg"},
		{"/soc/strict@100", "schema:ns16550a.yaml:arity:reg"},
		{"/soc/strict@100", "schema:ns16550a.yaml:minItems:reg"},
		{"/soc/clk@200", "schema:veth.yaml:required:id"},
		{"/soc/clk@200", "schema:ns16550a.yaml:arity:reg"},
		{"/soc/clk@200", "schema:clocked.yaml:pattern:clock-output-names"},
		{"/soc/shapes@300", "schema:shapes.yaml:enum:mode"},
	} {
		found := false
		for _, f := range findings {
			if f.Family == "schema" && f.Violation.Path == want.path && f.Violation.Rule == want.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s finding at %s in %v", want.rule, want.path, findings)
		}
	}
}

// recreatedLine is a product line whose node /clk (clocked.yaml
// requires its clock-output-names) a removal (fr) takes and a later
// modifies of / (fg) creates afresh without that property, so /clk has
// two source positions; then edits deltas e0…, each under its own
// optional feature, edit /clk, and fn removes the property.
func recreatedLine(t *testing.T, edits int) (*dts.Tree, *delta.Set, *featmodel.Model) {
	t.Helper()
	core, err := dts.Parse("core.dts", "/dts-v1/;\n/ {\n\tclk {\n\t\tclock-output-names = \"clk-a\";\n\t};\n};\n")
	if err != nil {
		t.Fatal(err)
	}
	var src, fm strings.Builder
	src.WriteString("delta rm when fr {\n    removes node /clk;\n}\n")
	src.WriteString("delta again after rm when fg {\n    modifies / {\n        clk {\n            u = <1>;\n        };\n    }\n}\n")
	src.WriteString("delta none when fn {\n    removes property /clk clock-output-names;\n}\n")
	fm.WriteString("feature root abstract {\n    feature fr\n    feature fg\n    feature fn\n")
	for i := 0; i < edits; i++ {
		fmt.Fprintf(&src, "delta e%d after again, none when f%d {\n    modifies /clk {\n        p%d = <1>;\n    }\n}\n", i, i, i)
		fmt.Fprintf(&fm, "    feature f%d\n", i)
	}
	fm.WriteString("}\n")
	set, err := delta.Parse("recreated.deltas", src.String())
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.ParseModel("recreated.fm", fm.String())
	if err != nil {
		t.Fatal(err)
	}
	return core, set, model
}

// TestOriginOptionsStayLinear bounds the origin options of a node with
// two source positions and 40 editing deltas by creations × events: one
// per pair of a creation and an event that can be the last to hold.
func TestOriginOptionsStayLinear(t *testing.T) {
	core, set, model := recreatedLine(t, 40)
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	events := lifted.Root.Child("clk").Origins
	creations := 0
	for _, o := range events {
		if !o.Edit {
			creations++
		}
	}
	if creations != 2 || len(events) != 43 {
		t.Fatalf("/clk has %d creations among %d events, want 2 among 43", creations, len(events))
	}
	opts := originOptions(featmodel.NewPresenceEncoder(model), events)
	if len(opts) > creations*len(events) {
		t.Errorf("%d origin options, want at most %d", len(opts), creations*len(events))
	}
}

// TestLiftedCheckersShareFreshModel runs 8 lifted checks of the E6
// corpus (the running example without d4, whose products collide) at
// once over one fresh Model, as concurrent requests over one front end
// do: whichever check enumerates the 12 products first, every check
// ranges over them and reports the same findings with the same
// witnesses, the lowest-indexed product of each guard (run under
// -race).
func TestLiftedCheckersShareFreshModel(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	var kept []*delta.Delta
	for _, d := range set.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	e6, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := e6.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	const checkers = 8
	var wg sync.WaitGroup
	results := make([][]LiftedFinding, checkers)
	stats := make([]LiftedStats, checkers)
	for i := range checkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc := NewLiftedChecker(model, schema.StandardSet())
			findings, err := lc.CheckContext(context.Background(), lifted)
			if err != nil {
				t.Error(err)
			}
			results[i], stats[i] = findings, lc.LastStats()
		}()
	}
	wg.Wait()
	if len(results[0]) == 0 {
		t.Fatal("the E6 corpus produced no findings")
	}
	for i := range checkers {
		if stats[i].Products != runningexample.ProductCount || stats[i].Queries != 0 {
			t.Errorf("checker %d: %d products, %d queries; want %d, 0", i, stats[i].Products, stats[i].Queries, runningexample.ProductCount)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("checker %d reports %v, checker 0 %v", i, results[i], results[0])
		}
	}
}

// TestLiftedSessionLineEnumeratesNothing checks fresh models of
// TestLiftedSchemaPerProperty's 128-product line. Its feature tree
// allows more than 64 configurations, so a check enumerates no product
// and answers in one session, and a conflict cap that the session's
// queries fit within (one more than all of them took) still finishes
// with the unbudgeted findings.
func TestLiftedSessionLineEnumeratesNothing(t *testing.T) {
	core, set, model, schemas := schemaPerPropertyLine(t)
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schemas)
	want, err := lc.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	st := lc.LastStats()
	if st.Enumeration != (sat.Stats{}) || st.Products != 0 || st.Sessions != 1 || st.Queries == 0 {
		t.Fatalf("enumeration work %+v, %d products, %d sessions, %d queries; want none, 0, 1 and some",
			st.Enumeration, st.Products, st.Sessions, st.Queries)
	}
	_, _, fresh, _ := schemaPerPropertyLine(t)
	budget := sat.Budget{MaxConflicts: st.Solver.Conflicts + 1}
	budgeted := &LiftedChecker{Model: fresh, Schemas: schemas, Budget: budget}
	got, err := budgeted.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatalf("a %d-conflict budget stopped the check after %+v: %v", budget.MaxConflicts, budgeted.LastStats().Solver, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted check reports %v, unbudgeted %v", got, want)
	}
}

// conflictSessionLine is schemaPerPropertyLine's line with a model
// whose queries need search: fnoreg and fcompat each require four
// pigeons in three holes, so neither is selectable, and the session
// proves each guard of theirs unreachable only through conflicts. The
// pigeon features take the feature tree far past 64 configurations, so
// one SAT session answers the check.
func conflictSessionLine(t *testing.T) (*dts.Tree, *delta.Set, *featmodel.Model, *schema.Set) {
	t.Helper()
	core, set, _, schemas := schemaPerPropertyLine(t)
	var b strings.Builder
	b.WriteString("feature root abstract {\n")
	for _, f := range []string{"fshift", "flabel", "fextra", "fnoreg", "fcompat", "fstatus", "fwide"} {
		fmt.Fprintf(&b, "    feature %s\n", f)
	}
	const pigeons, holes = 4, 3
	for _, prefix := range []string{"n", "c"} {
		for p := range pigeons {
			for h := range holes {
				fmt.Fprintf(&b, "    feature %sp%dh%d\n", prefix, p, h)
			}
		}
	}
	b.WriteString("}\n")
	for prefix, guard := range map[string]string{"n": "fnoreg", "c": "fcompat"} {
		for p := range pigeons {
			fmt.Fprintf(&b, "constraint %s -> (%sp%dh0 || %sp%dh1 || %sp%dh2)\n", guard, prefix, p, prefix, p, prefix, p)
		}
		for h := range holes {
			for p1 := range pigeons {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					fmt.Fprintf(&b, "constraint !(%sp%dh%d && %sp%dh%d)\n", prefix, p1, h, prefix, p2, h)
				}
			}
		}
	}
	model, err := featmodel.ParseModel("pigeons.fm", b.String())
	if err != nil {
		t.Fatal(err)
	}
	return core, set, model, schemas
}

// TestLiftedConflictCapPerCheck pins -solver-conflicts as one cap per
// lifted check: on a session line where at least two queries meet
// conflicts, a cap of the check's whole unbudgeted total T stops it
// with a conflicts *sat.LimitError, although no single query needs T,
// and a cap of T+1 finishes with the unbudgeted findings.
func TestLiftedConflictCapPerCheck(t *testing.T) {
	core, set, model, schemas := conflictSessionLine(t)
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schemas)
	want, err := lc.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatal(err)
	}
	st := lc.LastStats()
	total := st.Solver.Conflicts
	if st.Sessions != 1 || total == 0 {
		t.Fatalf("%d sessions, %d conflicts; want 1 session that meets conflicts", st.Sessions, total)
	}
	// stopped runs the check under a cap and returns how many queries it
	// asked, the last of them the one the cap stopped.
	stopped := func(limit uint64) int {
		t.Helper()
		_, _, fresh, _ := conflictSessionLine(t)
		budgeted := &LiftedChecker{Model: fresh, Schemas: schemas, Budget: sat.Budget{MaxConflicts: limit}}
		_, err := budgeted.CheckContext(t.Context(), lifted)
		var lim *sat.LimitError
		if !errors.As(err, &lim) || lim.Reason != sat.StopConflicts {
			t.Fatalf("a cap of %d of the check's %d conflicts: err = %v, want a %s *sat.LimitError",
				limit, total, err, sat.StopConflicts)
		}
		return budgeted.LastStats().Queries
	}
	// The query that meets the check's first conflict comes before the
	// one that meets its last, so at least two queries meet conflicts.
	if first, last := stopped(1), stopped(total); first >= last {
		t.Fatalf("the first and the last conflict fall in queries %d and %d; the line needs two queries with conflicts", first, last)
	}
	_, _, fresh, _ := conflictSessionLine(t)
	budgeted := &LiftedChecker{Model: fresh, Schemas: schemas, Budget: sat.Budget{MaxConflicts: total + 1}}
	got, err := budgeted.CheckContext(t.Context(), lifted)
	if err != nil {
		t.Fatalf("a cap of %d conflicts stopped the check: %v", total+1, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted check reports %v, unbudgeted %v", got, want)
	}
}

// TestLiftedCheckCanceled: a canceled context stops a lifted check with
// context.Canceled itself, never a *sat.LimitError, whichever part of
// the check meets it first: a fresh model's product enumeration, a
// product-set check over a kept product list, or a SAT session.
func TestLiftedCheckCanceled(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	example, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	lineCore, lineSet, lineModel, lineSchemas := schemaPerPropertyLine(t)
	line, err := lineSet.Lift(lineCore)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		lc   *LiftedChecker
		lt   *delta.LiftedTree
	}{
		{"enumeration", NewLiftedChecker(model, schema.StandardSet()), example},
		{"product sets", NewLiftedChecker(model, schema.StandardSet()), example},
		{"session", NewLiftedChecker(lineModel, lineSchemas), line},
	} {
		if _, err := tc.lc.CheckContext(ctx, tc.lt); err != context.Canceled {
			t.Errorf("%s: err = %v (%T), want context.Canceled", tc.name, err, err)
		}
		if tc.name == "enumeration" {
			// keep the model's product list for the product-set case
			if _, err := tc.lc.CheckContext(context.Background(), tc.lt); err != nil {
				t.Fatal(err)
			}
		}
	}
}
