package constraints

import (
	"context"
	"strings"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

func mustTree(t *testing.T, src string) *dts.Tree {
	t.Helper()
	tree, err := dts.Parse("test.dts", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tree
}

// ---- syntactic checker (Section IV-B) ----

func TestSyntacticCleanRunningExample(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	c := NewSyntacticChecker(schema.StandardSet())
	if vs := c.Check(tree); len(vs) != 0 {
		t.Errorf("running example should be syntactically valid; got %v", vs)
	}
}

func TestSyntacticMissingRequired(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		reg = <0x0 0x1000>;
	};
};
`)
	c := NewSyntacticChecker(schema.StandardSet())
	vs := c.Check(tree)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want 1", vs)
	}
	if vs[0].Property != "device_type" || !strings.Contains(vs[0].Rule, "required") {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestSyntacticConstMismatch(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		device_type = "ram";
		reg = <0x0 0x1000>;
	};
};
`)
	c := NewSyntacticChecker(schema.StandardSet())
	vs := c.Check(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "const") {
		t.Fatalf("violations = %v, want one const violation", vs)
	}
	if !strings.Contains(vs[0].Message, `"memory"`) {
		t.Errorf("message = %q", vs[0].Message)
	}
}

func TestSyntacticMultipleIndependentViolations(t *testing.T) {
	// missing device_type AND bad arity: both must be reported.
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		reg = <0x0 0x1000 0x5>;
	};
};
`)
	c := NewSyntacticChecker(schema.StandardSet())
	vs := c.Check(tree)
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2 (required + arity)", vs)
	}
	var haveRequired, haveArity bool
	for _, v := range vs {
		if strings.Contains(v.Rule, "required") {
			haveRequired = true
		}
		if strings.Contains(v.Rule, "arity") {
			haveArity = true
		}
	}
	if !haveRequired || !haveArity {
		t.Errorf("violations = %v", vs)
	}
}

func TestSyntacticEnumViolation(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "warp-drive";
			reg = <0x0>;
		};
	};
};
`)
	c := NewSyntacticChecker(schema.StandardSet())
	vs := c.Check(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Rule, "enum") {
		t.Fatalf("violations = %v, want one enum violation", vs)
	}
}

func TestSyntacticBlameDelta(t *testing.T) {
	// a violation introduced by a delta is blamed on it
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		device_type = "memory";
		reg = <0x0 0x1000>;
	};
};
`)
	mem := tree.Lookup("/memory@0")
	p := mem.Property("device_type")
	p.Value = dts.StringValueOf("broken")
	p.Origin.Delta = "d9"

	c := NewSyntacticChecker(schema.StandardSet())
	vs := c.Check(tree)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Origin.Delta != "d9" {
		t.Errorf("blame = %q, want d9", vs[0].Origin.Delta)
	}
	if !strings.Contains(vs[0].String(), "delta d9") {
		t.Errorf("String() = %q should mention the delta", vs[0].String())
	}
}

// ---- semantic checker (Section IV-C) ----

func TestSemanticAddressClash(t *testing.T) {
	// Section I-A: the uart's base address clashes with the second
	// memory bank; dtc and dt-schema accept it, llhsc must not.
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
	uart@60000000 {
		compatible = "ns16550a";
		reg = <0x0 0x60000000 0x0 0x1000>;
	};
};
`)
	// the baseline is blind to this fault
	if vs := schema.StandardSet().Validate(tree); len(vs) != 0 {
		t.Fatalf("baseline should accept the clash: %v", vs)
	}
	collisions, violations := NewSemanticChecker().Check(tree)
	if len(collisions) != 1 {
		t.Fatalf("collisions = %v, want 1", collisions)
	}
	col := collisions[0]
	if col.Witness < 0x60000000 || col.Witness >= 0x60001000 {
		t.Errorf("witness %#x outside the uart window", col.Witness)
	}
	if len(violations) == 0 {
		t.Error("expected violations")
	}
}

func TestSemanticCleanTree(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	collisions, violations := NewSemanticChecker().Check(tree)
	if len(collisions) != 0 || len(violations) != 0 {
		t.Errorf("running example should be clean: %v %v", collisions, violations)
	}
}

func TestSemanticTruncationCollisionAtZero(t *testing.T) {
	// Section IV-C: d3 applied without d4 — the 64-bit reg is read with
	// 32-bit cells, producing four banks and a collision at 0x0.
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
};
`)
	regions, err := addr.CollectRegions(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("regions = %d, want 4 banks (the paper's count)", len(regions))
	}
	collisions, _ := NewSemanticChecker().Check(tree)
	if len(collisions) == 0 {
		t.Fatal("truncation collision not found")
	}
	foundZero := false
	for _, c := range collisions {
		if c.Witness == 0x0 {
			foundZero = true
		}
	}
	if !foundZero {
		t.Errorf("collisions %v should include a witness at 0x0 (the paper's counterexample)", collisions)
	}
}

func TestSemanticRegionAtTopOfAddressSpace(t *testing.T) {
	regions := []addr.Region{
		{Base: 0xFFFF0000, Size: 0x10000, Path: "/top"},   // ends exactly at 2^32
		{Base: 0xFFFFF000, Size: 0x1000, Path: "/inside"}, // inside the first
	}
	sc := NewSemanticChecker()
	got := sc.FindCollisions(regions, 32)
	if len(got) != 1 {
		t.Fatalf("collisions = %v, want 1", got)
	}
	if w := got[0].Witness; w < 0xFFFFF000 {
		t.Errorf("witness %#x outside overlap", w)
	}
}

func TestInterruptChecker(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	uart@1000 { interrupts = <5>; };
	timer@2000 { interrupts = <5>; };
	rtc@3000 { interrupts = <7>; };
};
`)
	vs := InterruptChecker{}.Check(tree)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want 1", vs)
	}
	if !strings.Contains(vs[0].Message, "interrupt 5") {
		t.Errorf("message = %q", vs[0].Message)
	}

	clean := mustTree(t, `
/dts-v1/;
/ {
	uart@1000 { interrupts = <5>; };
	timer@2000 { interrupts = <6>; };
};
`)
	if vs := (InterruptChecker{}).Check(clean); len(vs) != 0 {
		t.Errorf("clean interrupts flagged: %v", vs)
	}
}

// TestInterruptCheckerCanceled: the pair loop polls the context itself
// and stops with context.Canceled on a canceled one.
func TestInterruptCheckerCanceled(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ {
	uart@1000 { interrupts = <5>; };
	timer@2000 { interrupts = <5>; };
};
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err := InterruptChecker{}.CheckContext(ctx, tree)
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want context.Canceled", err, err)
	}
	if len(vs) != 0 {
		t.Errorf("canceled check reported %v", vs)
	}
}

// ---- allocation checker (Section IV-A) ----

func TestAllocationValidPartitioning(t *testing.T) {
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewAllocationChecker(model, 2)
	if err != nil {
		t.Fatal(err)
	}
	vs := c.Check([]featmodel.Configuration{
		runningexample.VM1Config(),
		runningexample.VM2Config(),
	})
	if len(vs) != 0 {
		t.Errorf("paper partitioning rejected: %v", vs)
	}
}

func TestAllocationSharedCPURejected(t *testing.T) {
	model, _ := runningexample.Model()
	c, _ := NewAllocationChecker(model, 2)
	bad := featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0")
	vs := c.Check([]featmodel.Configuration{runningexample.VM1Config(), bad})
	if len(vs) != 1 || vs[0].Rule != "allocation:conflict" {
		t.Fatalf("violations = %v", vs)
	}
	if want := "conflicting selections: [vm1/cpu@0 vm2/cpu@0]"; !strings.HasSuffix(vs[0].Message, want) {
		t.Errorf("message %q should end in %q", vs[0].Message, want)
	}
}

// TestFamiliesCanceled runs every per-tree family on a tree that
// gives each of them work, first to its violations and then under a
// canceled context, which each must return as context.Canceled itself
// with no violations.
func TestFamiliesCanceled(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x10000000 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
	memory@0 {
		reg = <0x0 0x1000>;
	};
	uart@1000 {
		compatible = "ns16550a";
		reg = <0x1000 0x100>;
		interrupts = <5>;
	};
	uart@1080 {
		compatible = "ns16550a";
		reg = <0x1080 0x100>;
		interrupts = <5>;
	};
};
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range Families {
		if vs, _, err := f.Check(context.Background(), schema.StandardSet(), &TreeFacts{Tree: tree}); err != nil || len(vs) == 0 {
			t.Errorf("%s: %v, %v; want violations to stop", f.Name, vs, err)
		}
		vs, _, err := f.Check(ctx, schema.StandardSet(), &TreeFacts{Tree: tree})
		if err != context.Canceled || len(vs) != 0 {
			t.Errorf("%s under a canceled context: %v, %v (%T); want no violations and context.Canceled", f.Name, vs, err, err)
		}
	}
}

// TestAllocationCheckerErrors: a configuration count other than the
// VM count is reported as allocation:error, and a canceled context as
// context.Canceled with no violations.
func TestAllocationCheckerErrors(t *testing.T) {
	model, _ := runningexample.Model()
	c, _ := NewAllocationChecker(model, 2)
	vs := c.Check([]featmodel.Configuration{runningexample.VM1Config()})
	if len(vs) != 1 || vs[0].Rule != "allocation:error" {
		t.Errorf("violations = %v, want one allocation:error", vs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err := c.CheckContext(ctx, []featmodel.Configuration{runningexample.VM1Config(), runningexample.VM2Config()})
	if err != context.Canceled || len(vs) != 0 {
		t.Errorf("canceled check = %v, %v; want no violations and context.Canceled", vs, err)
	}
	if _, err := NewAllocationChecker(model, 0); err == nil {
		t.Error("zero VMs must be rejected")
	}
}
