package constraints

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/schema"
)

// TestSyntacticCheckerAgreesWithBaseline: the syntactic checker and the
// dt-schema baseline decide Section IV-B with one evaluator, so on every
// random tree they report exactly the same violations — path, property,
// schema ID, kind and message, in the same order — with the checker
// naming each rule schema:<id>:<kind>:<property>.
func TestSyntacticCheckerAgreesWithBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	set := schema.StandardSet()
	strict, err := schema.Load(strictSchemaYAML)
	if err != nil {
		t.Fatal(err)
	}
	set.Add(strict)
	checker := NewSyntacticChecker(set)

	type key struct{ path, property, schemaID, kind, message string }
	kinds := map[string]bool{}
	for iter := 0; iter < 120; iter++ {
		tree := randomSchemaTree(rng)
		var baseline, viaChecker []key
		for _, v := range set.Validate(tree) {
			baseline = append(baseline, key{v.Path, v.Property, v.SchemaID, v.Kind, v.Message})
			kinds[v.Kind] = true
		}
		for _, v := range checker.Check(tree) {
			rule, ok := strings.CutPrefix(v.Rule, "schema:")
			rule, ok2 := strings.CutSuffix(rule, ":"+v.Property)
			i := strings.LastIndexByte(rule, ':')
			if !ok || !ok2 || i < 0 {
				t.Fatalf("iter %d: rule %q is not schema:<id>:<kind>:%s", iter, v.Rule, v.Property)
			}
			viaChecker = append(viaChecker, key{v.Path, v.Property, rule[:i], rule[i+1:], v.Message})
		}
		if fmt.Sprint(baseline) != fmt.Sprint(viaChecker) {
			t.Fatalf("iter %d: baseline and checker differ\nbaseline=%v\nchecker =%v\n%s",
				iter, baseline, viaChecker, tree.Print())
		}
	}
	for _, k := range []string{"required", "const", "arity", "minItems", "additional"} {
		if !kinds[k] {
			t.Errorf("no %s violation was exercised", k)
		}
	}
}

// randomSchemaTree builds a memory node and a node the strict schema
// selects, with randomized structural faults: missing device_type,
// wrong const, bad arity, a disallowed property, a wrong or string-less
// const, or fully correct.
func randomSchemaTree(rng *rand.Rand) *dts.Tree {
	tree := dts.NewTree()
	tree.Root.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	tree.Root.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(1)})
	mem := tree.Root.EnsureChild(fmt.Sprintf("memory@%x", 0x40000000))
	set := func(n *dts.Node, name string, v dts.Value) {
		n.SetProperty(&dts.Property{Name: name, Value: v})
	}

	switch rng.Intn(3) {
	case 0:
		set(mem, "device_type", dts.StringValueOf("memory"))
	case 1:
		set(mem, "device_type", dts.StringValueOf("ram"))
	case 2:
		// missing entirely
	}

	switch rng.Intn(4) {
	case 0:
		set(mem, "reg", dts.CellsValue(0x40000000, 0x1000))
	case 1:
		// bad arity: odd cell count under stride 2
		set(mem, "reg", dts.CellsValue(0x40000000, 0x1000, 0x5))
	case 2:
		// bad arity and too few items
		set(mem, "reg", dts.CellsValue(0x40000000))
	case 3:
		// missing entirely
	}

	strict := tree.Root.EnsureChild("strict")
	switch rng.Intn(3) {
	case 0:
		set(strict, "reg-shift", dts.CellsValue(2))
	case 1:
		set(strict, "reg-shift", dts.CellsValue(uint32(rng.Intn(2))))
	}
	switch rng.Intn(3) {
	case 0:
		set(strict, "label", dts.StringValueOf("clk-main"))
	case 1:
		set(strict, "label", dts.CellsValue(1))
	}
	if rng.Intn(2) == 0 {
		set(strict, "clock-frequency", dts.CellsValue(1843200))
	}
	return tree
}

// TestSyntacticCheckerCPUEnum exercises the enum rule (axiom (3)).
func TestSyntacticCheckerCPUEnum(t *testing.T) {
	for _, tt := range []struct {
		method string
		wantOK bool
	}{
		{"psci", true},
		{"spin-table", true},
		{"levitation", false},
	} {
		src := fmt.Sprintf(`
/dts-v1/;
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = %q;
			reg = <0x0>;
		};
	};
};
`, tt.method)
		tree, err := dts.Parse("cpu.dts", src)
		if err != nil {
			t.Fatal(err)
		}
		vs := NewSyntacticChecker(schema.StandardSet()).Check(tree)
		if ok := len(vs) == 0; ok != tt.wantOK {
			t.Errorf("enable-method %q: violations = %v, wantOK = %v", tt.method, vs, tt.wantOK)
		}
	}
}

// TestSyntacticCheckerYAMLSchemaPattern drives a loaded YAML schema
// with a pattern constraint end-to-end through the syntactic checker.
func TestSyntacticCheckerYAMLSchemaPattern(t *testing.T) {
	sc, err := schema.Load(`
$id: clocked.yaml
select:
  node: clk
properties:
  clock-output-names:
    pattern: ^clk-[a-z]+$
required:
  - clock-output-names
`)
	if err != nil {
		t.Fatal(err)
	}
	set := &schema.Set{}
	set.Add(sc)
	checker := NewSyntacticChecker(set)

	good, _ := dts.Parse("g.dts", `
/dts-v1/;
/ { clk { clock-output-names = "clk-main"; }; };
`)
	if vs := checker.Check(good); len(vs) != 0 {
		t.Errorf("good clock flagged: %v", vs)
	}

	bad, _ := dts.Parse("b.dts", `
/dts-v1/;
/ { clk { clock-output-names = "CLK9"; }; };
`)
	vs := checker.Check(bad)
	if len(vs) != 1 || vs[0].Property != "clock-output-names" {
		t.Errorf("bad clock: %v", vs)
	}
}
