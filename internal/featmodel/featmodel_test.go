package featmodel

import (
	"reflect"
	"strings"
	"testing"

	"llhsc/internal/dts"
)

// mustMultiAnalyzer builds a MultiAnalyzer, failing the test on error.
func mustMultiAnalyzer(t *testing.T, mm *MultiModel) *MultiAnalyzer {
	t.Helper()
	ma, err := NewMultiAnalyzer(mm)
	if err != nil {
		t.Fatalf("NewMultiAnalyzer: %v", err)
	}
	return ma
}

// paperModel builds the Fig. 1a feature model of the running example.
func paperModel(t *testing.T) *Model {
	t.Helper()
	root := &Feature{Name: "CustomSBC", Abstract: true, Group: GroupAnd, Children: []*Feature{
		{Name: "memory", Mandatory: true, Group: GroupAnd},
		{Name: "cpus", Abstract: true, Mandatory: true, Group: GroupXor, Children: []*Feature{
			{Name: "cpu@0", Exclusive: true, Group: GroupAnd},
			{Name: "cpu@1", Exclusive: true, Group: GroupAnd},
		}},
		{Name: "uarts", Abstract: true, Mandatory: true, Group: GroupOr, Children: []*Feature{
			{Name: "uart0", Group: GroupAnd},
			{Name: "uart1", Group: GroupAnd},
		}},
		{Name: "vEthernet", Abstract: true, Group: GroupXor, Children: []*Feature{
			{Name: "veth0", Group: GroupAnd},
			{Name: "veth1", Group: GroupAnd},
		}},
	}}
	m, err := NewModel(root,
		MustParseExpr("veth0 -> cpu@0"),
		MustParseExpr("veth1 -> cpu@1"),
	)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestPaperModelHas12Products(t *testing.T) {
	// Fig. 1a: "In this feature model there are 12 valid products."
	a := NewAnalyzer(paperModel(t))
	n, complete := a.CountProducts(0)
	if !complete {
		t.Fatal("counting did not complete")
	}
	if n != 12 {
		t.Errorf("products = %d, want 12 (the paper's count)", n)
	}
}

func TestPaperModelProductsAreValid(t *testing.T) {
	m := paperModel(t)
	a := NewAnalyzer(m)
	products, complete := a.EnumerateProducts(0)
	if !complete {
		t.Fatal("enumeration did not complete")
	}
	if len(products) != 12 {
		t.Fatalf("enumerated %d products, want 12", len(products))
	}
	for _, p := range products {
		if c := m.Conflict(ConfigOf(p...)); c != nil {
			t.Errorf("enumerated product %v reported invalid: %v", p, c)
		}
	}
}

func TestFig1bAndFig1cProducts(t *testing.T) {
	m := paperModel(t)

	// Fig. 1b: cpu@0, both UARTs, veth0.
	vm1 := ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0", "uart1", "vEthernet", "veth0")
	if c := m.Conflict(vm1); c != nil {
		t.Errorf("Fig. 1b product should be valid; explanation: %v", c)
	}

	// Fig. 1c: cpu@1, both UARTs, veth1.
	vm2 := ConfigOf("CustomSBC", "memory", "cpus", "cpu@1", "uarts", "uart0", "uart1", "vEthernet", "veth1")
	if c := m.Conflict(vm2); c != nil {
		t.Errorf("Fig. 1c product should be valid; explanation: %v", c)
	}
}

func TestInvalidProducts(t *testing.T) {
	m := paperModel(t)
	tests := []struct {
		name string
		cfg  Configuration
		want []string // the violated constraint's literals
	}{
		{"both CPUs (XOR)", ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "cpu@1", "uarts", "uart0"),
			[]string{"cpu@0", "cpu@1"}},
		{"no CPU", ConfigOf("CustomSBC", "memory", "cpus", "uarts", "uart0"),
			[]string{"cpus", "!cpu@0", "!cpu@1"}},
		{"missing mandatory memory", ConfigOf("CustomSBC", "cpus", "cpu@0", "uarts", "uart0"),
			[]string{"CustomSBC", "!memory"}},
		{"veth without matching cpu", ConfigOf("CustomSBC", "memory", "cpus", "cpu@1", "uarts", "uart0", "vEthernet", "veth0"),
			[]string{"veth0", "!cpu@0"}},
		{"child without parent", ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0", "veth0"),
			[]string{"veth0", "!vEthernet"}},
		{"empty OR group", ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts"),
			[]string{"uarts", "!uart0", "!uart1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Conflict(tt.cfg); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Conflict = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCoreAndDeadFeatures(t *testing.T) {
	a := NewAnalyzer(paperModel(t))
	core := a.CoreFeatures()
	wantCore := map[string]bool{"CustomSBC": true, "memory": true, "cpus": true, "uarts": true}
	for _, c := range core {
		if !wantCore[c] {
			t.Errorf("unexpected core feature %s", c)
		}
		delete(wantCore, c)
	}
	for missing := range wantCore {
		t.Errorf("core feature %s not reported", missing)
	}
	if dead := a.DeadFeatures(); len(dead) != 0 {
		t.Errorf("dead features = %v, want none", dead)
	}
}

func TestDeadFeatureDetected(t *testing.T) {
	root := &Feature{Name: "r", Group: GroupAnd, Children: []*Feature{
		{Name: "a", Group: GroupAnd},
		{Name: "b", Group: GroupAnd},
	}}
	m, err := NewModel(root, MustParseExpr("a -> b"), MustParseExpr("a -> !b"))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(m)
	dead := a.DeadFeatures()
	if len(dead) != 1 || dead[0] != "a" {
		t.Errorf("dead = %v, want [a]", dead)
	}
	if a.IsVoid() {
		t.Error("model is not void")
	}
}

func TestVoidModel(t *testing.T) {
	root := &Feature{Name: "r", Group: GroupAnd, Children: []*Feature{
		{Name: "a", Mandatory: true, Group: GroupAnd},
	}}
	m, err := NewModel(root, MustParseExpr("!a"))
	if err != nil {
		t.Fatal(err)
	}
	if !NewAnalyzer(m).IsVoid() {
		t.Error("model should be void")
	}
}

func TestDuplicateFeatureName(t *testing.T) {
	root := &Feature{Name: "r", Group: GroupAnd, Children: []*Feature{
		{Name: "x"}, {Name: "x"},
	}}
	if _, err := NewModel(root); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate-name error", err)
	}
}

func TestUnknownConstraintName(t *testing.T) {
	root := &Feature{Name: "r", Group: GroupAnd}
	if _, err := NewModel(root, MustParseExpr("ghost")); err == nil {
		t.Error("constraint over unknown feature should fail")
	}
}

func TestMultiModelStaticPartitioning(t *testing.T) {
	m := paperModel(t)
	mm, err := NewMultiModel(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mustMultiAnalyzer(t, mm).IsVoid() {
		t.Fatal("2-VM partitioning should be satisfiable")
	}

	vm1 := ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0", "uart1", "vEthernet", "veth0")
	vm2 := ConfigOf("CustomSBC", "memory", "cpus", "cpu@1", "uarts", "uart0", "uart1", "vEthernet", "veth1")
	if lits, err := mm.Conflict([]Configuration{vm1, vm2}); err != nil || lits != nil {
		t.Errorf("paper's two products should be a valid partitioning: %v, %v", lits, err)
	}

	// Both VMs using cpu@0 violates cross-VM exclusivity.
	vm2bad := ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0")
	lits, err := mm.Conflict([]Configuration{vm1, vm2bad})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"vm1/cpu@0", "vm2/cpu@0"}; !reflect.DeepEqual(lits, want) {
		t.Errorf("conflict = %v, want %v", lits, want)
	}
	if _, err := mm.Conflict([]Configuration{vm1}); err == nil {
		t.Error("one configuration for two VMs must be an error")
	}
}

func TestMultiModelMaxVMs(t *testing.T) {
	// Section IV-A: "the maximum number of VMs is two" — with two
	// exclusive CPUs and cpus mandatory, three VMs are unsatisfiable.
	m := paperModel(t)
	mm, _ := NewMultiModel(m, 3)
	if !mustMultiAnalyzer(t, mm).IsVoid() {
		t.Error("3 VMs over 2 exclusive CPUs should be void")
	}
}

func TestSolveAssignmentAutomaticCPUs(t *testing.T) {
	// The paper grays out CPU features: users pin veths, the solver
	// assigns CPUs automatically.
	m := paperModel(t)
	mm, _ := NewMultiModel(m, 2)
	ma := mustMultiAnalyzer(t, mm)
	configs, err := ma.SolveAssignment([]map[string]bool{
		{"veth0": true},
		{"veth1": true},
	})
	if err != nil {
		t.Fatalf("SolveAssignment: %v", err)
	}
	if !configs[0]["cpu@0"] {
		t.Errorf("vm1 = %v, should include cpu@0 (forced by veth0)", configs[0].Sorted())
	}
	if !configs[1]["cpu@1"] {
		t.Errorf("vm2 = %v, should include cpu@1 (forced by veth1)", configs[1].Sorted())
	}
}

func TestSolveAssignmentConflict(t *testing.T) {
	m := paperModel(t)
	mm, _ := NewMultiModel(m, 2)
	ma := mustMultiAnalyzer(t, mm)
	// veth0 in both VMs forces cpu@0 in both: exclusivity conflict.
	if _, err := ma.SolveAssignment([]map[string]bool{
		{"veth0": true},
		{"veth0": true},
	}); err == nil {
		t.Error("conflicting pins should fail")
	}
	// unknown pin name
	if _, err := ma.SolveAssignment([]map[string]bool{{"nope": true}}); err == nil {
		t.Error("unknown feature pin should fail")
	}
}

func TestPlatformUnion(t *testing.T) {
	u := PlatformUnion([]Configuration{
		ConfigOf("a", "b"),
		ConfigOf("b", "c"),
	})
	if got := u.Sorted(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("union = %v", got)
	}
}

func TestParseExpr(t *testing.T) {
	tests := []struct {
		src  string
		env  map[string]bool
		want bool
	}{
		{"a || b", map[string]bool{"a": true}, true},
		{"a || b", map[string]bool{}, false},
		{"a && !b", map[string]bool{"a": true}, true},
		{"a && !b", map[string]bool{"a": true, "b": true}, false},
		{"veth0 -> cpu@0", map[string]bool{"veth0": true}, false},
		{"veth0 -> cpu@0", map[string]bool{"veth0": true, "cpu@0": true}, true},
		{"(a || b) && c", map[string]bool{"b": true, "c": true}, true},
		{"a -> b -> c", map[string]bool{"a": true, "b": true, "c": true}, true},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			e, err := ParseExpr(tt.src)
			if err != nil {
				t.Fatalf("ParseExpr: %v", err)
			}
			if got := e.Eval(tt.env); got != tt.want {
				t.Errorf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range []string{"", "a &&", "(a", "a b", "&& a", "a ||"} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) should fail", src)
		}
	}
}

func TestExprString(t *testing.T) {
	e := MustParseExpr("veth0 -> (cpu@0 && !cpu@1)")
	round, err := ParseExpr(e.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", e.String(), err)
	}
	env := map[string]bool{"veth0": true, "cpu@0": true}
	if e.Eval(env) != round.Eval(env) {
		t.Error("String/reparse changed semantics")
	}
}

func TestInferFromDTS(t *testing.T) {
	src := `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	compatible = "vortex,custom-sbc";

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 { device_type = "cpu"; reg = <0x0>; };
		cpu@1 { device_type = "cpu"; reg = <0x1>; };
	};
	uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
	uart1: uart@30000000 { compatible = "ns16550a"; reg = <0x0 0x30000000 0x0 0x1000>; };
	watchdog@50000 { reg = <0x0 0x50000 0x0 0x100>; };
};
`
	tree, err := dts.Parse("infer.dts", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := InferFromDTS(tree, InferOptions{})
	if err != nil {
		t.Fatalf("InferFromDTS: %v", err)
	}
	if m.Root.Name != "vortex,custom-sbc" {
		t.Errorf("root = %s", m.Root.Name)
	}
	cpus := m.Feature("cpus")
	if cpus == nil || cpus.Group != GroupXor || !cpus.Mandatory || !cpus.Abstract {
		t.Fatalf("cpus feature = %+v", cpus)
	}
	if len(cpus.Children) != 2 || !cpus.Children[0].Exclusive {
		t.Errorf("cpu children = %+v", cpus.Children)
	}
	mem := m.Feature("memory@40000000")
	if mem == nil || !mem.Mandatory {
		t.Errorf("memory feature = %+v", mem)
	}
	uarts := m.Feature("uarts")
	if uarts == nil || uarts.Group != GroupOr || !uarts.Abstract {
		t.Fatalf("uarts feature = %+v", uarts)
	}
	if len(uarts.Children) != 2 || uarts.Children[0].Name != "uart0" {
		t.Errorf("uart children = %+v", uarts.Children)
	}
	wd := m.Feature("watchdog@50000")
	if wd == nil || wd.Mandatory {
		t.Errorf("watchdog feature = %+v", wd)
	}
}

func TestInferredModelPlusVirtualGroupCounts12(t *testing.T) {
	// E2: reproduce the paper's 12-product figure from the actual
	// running-example DTS plus the virtual Ethernet group.
	tree, err := dts.ParseFile("../../testdata/customsbc.dts")
	if err != nil {
		t.Fatal(err)
	}
	base, err := InferFromDTS(tree, InferOptions{RootName: "CustomSBC"})
	if err != nil {
		t.Fatal(err)
	}
	// drop the watchdog-free base: running example has memory, cpus, uarts
	m, err := base.AddVirtualGroup("vEthernet", GroupXor, []string{"veth0", "veth1"},
		MustParseExpr("veth0 -> cpu@0"),
		MustParseExpr("veth1 -> cpu@1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	n, complete := NewAnalyzer(m).CountProducts(0)
	if !complete || n != 12 {
		t.Errorf("products = %d (complete=%v), want 12", n, complete)
	}
}

func TestCountProductsLimit(t *testing.T) {
	a := NewAnalyzer(paperModel(t))
	n, complete := a.CountProducts(5)
	if complete || n != 5 {
		t.Errorf("limited count = %d,%v; want 5,false", n, complete)
	}
}

func TestConfigurationSorted(t *testing.T) {
	c := ConfigOf("b", "a")
	c["z"] = false
	got := c.Sorted()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Sorted = %v", got)
	}
}

// TestCompleteAllocs pins Complete's allocations on a VM of the
// synthetic 8-CPU/24-UART line's shape: nine selected features, more
// than a map's first group holds. The configuration map is sized once
// from the names' depths, so it never grows while it fills: 4
// allocations and ~504 B, where growing from one entry took 5 and
// ~712 B.
func TestCompleteAllocs(t *testing.T) {
	cpus := &Feature{Name: "cpus", Abstract: true, Mandatory: true, Group: GroupXor}
	for i := 0; i < 8; i++ {
		cpus.Children = append(cpus.Children, &Feature{Name: "cpu@" + string(rune('0'+i))})
	}
	uarts := &Feature{Name: "uarts", Abstract: true, Mandatory: true, Group: GroupOr}
	for i := 0; i < 24; i++ {
		uarts.Children = append(uarts.Children, &Feature{Name: "uart" + strings.Repeat("x", i)})
	}
	m, err := NewModel(&Feature{Name: "BigBoard", Abstract: true, Children: []*Feature{
		{Name: "memory", Mandatory: true}, cpus, uarts,
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"memory", "cpu@3", "uartx", "uartxx", " uartxxx ", "uartxxxx"}
	cfg, err := m.Complete(names)
	if err != nil {
		t.Fatal(err)
	}
	if want := ConfigOf("BigBoard", "memory", "cpus", "cpu@3", "uarts", "uartx", "uartxx", "uartxxx", "uartxxxx"); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("Complete = %v, want %v", cfg, want)
	}
	const budget = 4
	if got := testing.AllocsPerRun(100, func() { _, _ = m.Complete(names) }); got > budget {
		t.Errorf("Complete: %.0f allocations, budget %d", got, budget)
	}
}
