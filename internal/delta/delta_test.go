package delta

import (
	"errors"
	"strings"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// listing4 is the paper's Listing 4 delta set (d2's node renamed to
// veth1@70000000; the listing's "veth0@70000000" under "when veth1" is
// an apparent typo — see EXPERIMENTS.md E4).
const listing4 = `
delta d1 after d3 when veth0 {
    adds binding vEthernet {
        veth0@80000000 {
            compatible = "veth";
            reg = <0x80000000 0x10000000>;
            id = <0>;
        };
    }
}

delta d2 after d3 when veth1 {
    adds binding vEthernet {
        veth1@70000000 {
            compatible = "veth";
            reg = <0x70000000 0x10000000>;
            id = <1>;
        };
    }
}

delta d3 when (veth0 || veth1) {
    modifies / {
        #address-cells = <1>;
        #size-cells = <1>;
        vEthernet { };
    }
}

delta d4 after d3 when memory {
    modifies memory@40000000 {
        reg = <0x40000000 0x20000000
               0x60000000 0x20000000>;
    }
}
`

const coreDTS = `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};

	uart0: uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
	};
};
`

func mustSet(t *testing.T, src string) *Set {
	t.Helper()
	s, err := Parse("deltas", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func mustTree(t *testing.T, src string) *dts.Tree {
	t.Helper()
	tree, err := dts.Parse("core.dts", src)
	if err != nil {
		t.Fatalf("parse DTS: %v", err)
	}
	return tree
}

func TestParseListing4(t *testing.T) {
	s := mustSet(t, listing4)
	if len(s.Deltas) != 4 {
		t.Fatalf("deltas = %d, want 4", len(s.Deltas))
	}
	d1 := s.Delta("d1")
	if d1 == nil || len(d1.After) != 1 || d1.After[0] != "d3" {
		t.Errorf("d1 = %+v", d1)
	}
	if d1.When == nil || d1.When.String() != "veth0" {
		t.Errorf("d1 when = %v", d1.When)
	}
	if len(d1.Ops) != 1 || d1.Ops[0].Kind != OpAdds || d1.Ops[0].Target != "vEthernet" {
		t.Errorf("d1 ops = %+v", d1.Ops)
	}
	veth := d1.Ops[0].Fragment.Child("veth0@80000000")
	if veth == nil {
		t.Fatal("veth0 node missing from d1 fragment")
	}
	if got := veth.Property("reg").Value.U32s(); len(got) != 2 || got[0] != 0x80000000 {
		t.Errorf("veth reg = %#x", got)
	}
	d3 := s.Delta("d3")
	if d3.When == nil || len(d3.After) != 0 {
		t.Errorf("d3 = %+v", d3)
	}
	if d3.Ops[0].Kind != OpModifies || d3.Ops[0].Target != "/" {
		t.Errorf("d3 op = %+v", d3.Ops[0])
	}
}

func TestActivationAndOrder(t *testing.T) {
	s := mustSet(t, listing4)

	// VM1 (Fig. 1b): veth0, memory -> d3 < d4 < ... with d1 active
	vm1 := featmodel.ConfigOf("memory", "cpu@0", "uart0", "uart1", "veth0")
	ordered, err := s.Order(vm1)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	names := make([]string, len(ordered))
	for i, d := range ordered {
		names[i] = d.Name
	}
	// The induced strict partial order for VM1 is d3 < d4 < d2? No:
	// paper says d3 < d4 < d2 for the FIRST VM -- with its veth0/d1
	// naming convention inverted; structurally d3 must precede d1/d4.
	idx := make(map[string]int)
	for i, n := range names {
		idx[n] = i
	}
	if _, ok := idx["d2"]; ok {
		t.Errorf("d2 must not be active for VM1: %v", names)
	}
	if !(idx["d3"] < idx["d1"] && idx["d3"] < idx["d4"]) {
		t.Errorf("order %v violates d3 < d1 and d3 < d4", names)
	}

	// No veth: only d4 is active.
	plain := featmodel.ConfigOf("memory", "cpu@0", "uart0")
	act := s.Active(plain)
	if len(act) != 1 || act[0].Name != "d4" {
		t.Errorf("active = %v, want [d4]", act)
	}
}

func TestApplyVM1Product(t *testing.T) {
	s := mustSet(t, listing4)
	core := mustTree(t, coreDTS)
	vm1 := featmodel.ConfigOf("memory", "cpu@0", "uart0", "veth0")

	product, trace, err := s.Apply(core, vm1)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(trace) != 3 { // d3, d1, d4 in some valid order
		t.Errorf("trace = %v", trace)
	}

	// d3 switched the root to 32-bit addressing and added vEthernet
	if ac := product.Root.AddressCells(); ac != 1 {
		t.Errorf("#address-cells = %d, want 1", ac)
	}
	veth := product.Lookup("/vEthernet/veth0@80000000")
	if veth == nil {
		t.Fatal("veth0 missing from product")
	}
	if got, _ := veth.StringValue("compatible"); got != "veth" {
		t.Errorf("veth compatible = %q", got)
	}
	// provenance: the veth node is blamed on d1
	if veth.Origin.Delta != "d1" {
		t.Errorf("veth origin delta = %q, want d1", veth.Origin.Delta)
	}

	// d4 rewrote the memory reg to 32-bit cells
	mem := product.Lookup("/memory@40000000")
	reg := mem.Property("reg")
	if got := reg.Value.U32s(); len(got) != 4 || got[0] != 0x40000000 {
		t.Errorf("memory reg = %#x", got)
	}
	if reg.Origin.Delta != "d4" {
		t.Errorf("memory reg origin delta = %q, want d4", reg.Origin.Delta)
	}

	// the original core tree is untouched
	if got := core.Root.AddressCells(); got != 2 {
		t.Error("Apply mutated the core tree")
	}
}

func TestApplyOmittedD4Truncation(t *testing.T) {
	// Section IV-C: omit d4 -> memory reg keeps its 64-bit layout
	// while the root switched to 32-bit cells.
	src := strings.Replace(listing4, "delta d4 after d3 when memory", "delta d4 after d3 when never", 1)
	s := mustSet(t, src)
	core := mustTree(t, coreDTS)
	vm1 := featmodel.ConfigOf("memory", "veth0")
	product, _, err := s.Apply(core, vm1)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	mem := product.Lookup("/memory@40000000")
	if got := len(mem.Property("reg").Value.U32s()); got != 8 {
		t.Fatalf("reg cells = %d, want 8 (unconverted)", got)
	}
	if ac := product.Root.AddressCells(); ac != 1 {
		t.Errorf("#address-cells = %d, want 1", ac)
	}
}

func TestAddsExistingNodeFails(t *testing.T) {
	s := mustSet(t, `
delta a {
    adds binding / {
        uart@20000000 { };
    }
}
`)
	core := mustTree(t, coreDTS)
	_, _, err := s.Apply(core, featmodel.ConfigOf())
	var ae *ApplyError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want ApplyError", err)
	}
	if ae.Delta != "a" || !strings.Contains(ae.Msg, "already exists") {
		t.Errorf("ApplyError = %+v", ae)
	}
}

func TestRemoves(t *testing.T) {
	s := mustSet(t, `
delta strip when minimal {
    removes node uart@20000000;
    removes property memory@40000000 device_type;
}
`)
	core := mustTree(t, coreDTS)
	product, _, err := s.Apply(core, featmodel.ConfigOf("minimal"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if product.Lookup("/uart@20000000") != nil {
		t.Error("uart should be removed")
	}
	if product.Lookup("/memory@40000000").Property("device_type") != nil {
		t.Error("device_type should be removed")
	}

	// inactive -> nothing happens
	untouched, _, err := s.Apply(core, featmodel.ConfigOf())
	if err != nil {
		t.Fatal(err)
	}
	if untouched.Lookup("/uart@20000000") == nil {
		t.Error("inactive delta must not apply")
	}
}

func TestRemoveMissingFails(t *testing.T) {
	s := mustSet(t, `
delta bad {
    removes node nonexistent@0;
}
`)
	core := mustTree(t, coreDTS)
	if _, _, err := s.Apply(core, featmodel.ConfigOf()); err == nil {
		t.Error("removing a missing node should fail")
	}
}

func TestCycleDetection(t *testing.T) {
	s := mustSet(t, `
delta a after b { modifies / { x = <1>; } }
delta b after a { modifies / { y = <1>; } }
`)
	_, err := s.Order(featmodel.ConfigOf())
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CycleError", err)
	}
}

func TestAmbiguityDetection(t *testing.T) {
	// a and b both write /#x with no order between them.
	s := mustSet(t, `
delta a { modifies / { x = <1>; } }
delta b { modifies / { x = <2>; } }
`)
	_, err := s.Order(featmodel.ConfigOf())
	var ae *AmbiguityError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want AmbiguityError", err)
	}
	if ae.Location != "/#x" {
		t.Errorf("location = %q", ae.Location)
	}

	// ordering resolves the ambiguity
	s2 := mustSet(t, `
delta a { modifies / { x = <1>; } }
delta b after a { modifies / { x = <2>; } }
`)
	ordered, err := s2.Order(featmodel.ConfigOf())
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	core := mustTree(t, coreDTS)
	product, _, err := s2.Apply(core, featmodel.ConfigOf())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := product.Root.CellValue("x"); v != 2 {
		t.Errorf("x = %d, want 2 (b applied last; order %v)", v, ordered)
	}

	// disjoint writes need no order
	s3 := mustSet(t, `
delta a { modifies / { x = <1>; } }
delta b { modifies / { y = <2>; } }
`)
	if _, err := s3.Order(featmodel.ConfigOf()); err != nil {
		t.Errorf("disjoint writes should be fine: %v", err)
	}
}

func TestTransitiveOrderResolvesAmbiguity(t *testing.T) {
	s := mustSet(t, `
delta a { modifies / { x = <1>; } }
delta m after a { modifies / { unrelated = <0>; } }
delta b after m { modifies / { x = <2>; } }
`)
	if _, err := s.Order(featmodel.ConfigOf()); err != nil {
		t.Errorf("transitively ordered deltas should be fine: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"not delta", `module x { }`, "expected 'delta'"},
		{"bad when", `delta a when (x { }`, "when clause"},
		{"unknown op", `delta a { frobnicate / { } }`, "unknown operation"},
		{"adds without binding", `delta a { adds / { } }`, "binding"},
		{"after unknown", `delta a after ghost { }`, "unknown delta"},
		{"duplicate", "delta a { }\ndelta a { }", "duplicate"},
		{"bad fragment", `delta a { modifies / { $$$ } }`, "unexpected"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse("t", tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestDeclarationOrderTieBreak(t *testing.T) {
	s := mustSet(t, `
delta z { modifies / { a = <1>; } }
delta y { modifies / { b = <1>; } }
delta x { modifies / { c = <1>; } }
`)
	ordered, err := s.Order(featmodel.ConfigOf())
	if err != nil {
		t.Fatal(err)
	}
	if ordered[0].Name != "z" || ordered[1].Name != "y" || ordered[2].Name != "x" {
		t.Errorf("order = %v, want declaration order", ordered)
	}
}

func TestRemovesNodeTargetForms(t *testing.T) {
	core := mustTree(t, `/dts-v1/;
/ {
	soc {
		bus { dev@1 { }; };
		lbl: dev@2 { };
	};
	dev@1 { };
	keep { };
};`)
	remove := func(target string) (*dts.Tree, error) {
		s, err := NewSet([]*Delta{{Name: "rm", Ops: []Operation{{Kind: OpRemovesNode, Target: target}}}})
		if err != nil {
			t.Fatal(err)
		}
		product, _, err := s.Apply(core, featmodel.ConfigOf())
		return product, err
	}
	for _, tc := range []struct{ target, gone, kept string }{
		{"dev@1", "/soc/bus/dev@1", "/dev@1"}, // first depth-first match
		{"/dev@1", "/dev@1", "/soc/bus/dev@1"},
		{"/soc/bus", "/soc/bus", "/soc/dev@2"},
		{"&lbl", "/soc/dev@2", "/soc/bus"},
	} {
		product, err := remove(tc.target)
		if err != nil {
			t.Fatalf("removes node %s: %v", tc.target, err)
		}
		if product.Lookup(tc.gone) != nil || product.Lookup(tc.kept) == nil {
			t.Errorf("removes node %s: want %s gone and %s kept", tc.target, tc.gone, tc.kept)
		}
	}
	if _, err := remove("/"); err == nil || !strings.Contains(err.Error(), "cannot remove the root node") {
		t.Errorf("removes node /: err = %v, want the root refusal", err)
	}
	if _, err := remove("/soc/nope"); err == nil || !strings.Contains(err.Error(), "target node not found") {
		t.Errorf("removes node /soc/nope: err = %v, want target not found", err)
	}
}
