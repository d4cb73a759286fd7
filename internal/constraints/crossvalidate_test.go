package constraints

import (
	"fmt"
	"math/rand"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/schema"
)

// TestSyntacticCheckerAgreesWithBaseline cross-validates the two
// implementations of Section IV-B: on purely structural faults, the
// rule-by-rule syntactic checker and the direct structural validator
// must agree on whether a node violates its schema (they may differ in
// message wording, not in verdicts).
func TestSyntacticCheckerAgreesWithBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	set := schema.StandardSet()
	checker := NewSyntacticChecker(set)

	for iter := 0; iter < 120; iter++ {
		tree := randomMemoryNode(rng)
		baseline := set.Validate(tree)
		viaChecker := checker.Check(tree)

		baselineProps := violationProps(t, baseline)
		checkerProps := make(map[string]bool)
		for _, v := range viaChecker {
			checkerProps[v.Property] = true
		}

		if (len(baseline) > 0) != (len(viaChecker) > 0) {
			t.Fatalf("iter %d: verdicts disagree: baseline=%v checker=%v\n%s",
				iter, baseline, viaChecker, tree.Print())
		}
		// both must implicate the same properties
		for p := range baselineProps {
			if !checkerProps[p] {
				t.Errorf("iter %d: baseline flags %q but the syntactic checker does not\nbaseline=%v checker=%v",
					iter, p, baseline, viaChecker)
			}
		}
		for p := range checkerProps {
			if !baselineProps[p] {
				t.Errorf("iter %d: syntactic checker flags %q but the baseline does not\nbaseline=%v checker=%v",
					iter, p, baseline, viaChecker)
			}
		}
	}
}

func violationProps(t *testing.T, vs []schema.Violation) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, v := range vs {
		out[v.Property] = true
	}
	return out
}

// randomMemoryNode builds a memory node with randomized structural
// faults: possibly missing device_type, wrong const, bad arity, or
// fully correct.
func randomMemoryNode(rng *rand.Rand) *dts.Tree {
	tree := dts.NewTree()
	tree.Root.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	tree.Root.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(1)})
	mem := tree.Root.EnsureChild(fmt.Sprintf("memory@%x", 0x40000000))

	switch rng.Intn(3) {
	case 0:
		mem.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("memory")})
	case 1:
		mem.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("ram")})
	case 2:
		// missing entirely
	}

	switch rng.Intn(3) {
	case 0:
		mem.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(0x40000000, 0x1000)})
	case 1:
		// bad arity: odd cell count under stride 2
		mem.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(0x40000000, 0x1000, 0x5)})
	case 2:
		// missing entirely
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
