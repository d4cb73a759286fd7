package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"llhsc/internal/addr"
	"llhsc/internal/constraints"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

func TestSyntheticDTSIsClean(t *testing.T) {
	tree := SyntheticDTS(8, 16)
	if vs := schema.StandardSet().Validate(tree); len(vs) != 0 {
		t.Errorf("synthetic DTS structurally invalid: %v", vs)
	}
	collisions, vs := constraints.NewSemanticChecker().Check(tree)
	if len(collisions) != 0 || len(vs) != 0 {
		t.Errorf("synthetic DTS has collisions: %v %v", collisions, vs)
	}
	regions, err := addr.CollectRegions(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 8+16 {
		t.Errorf("regions = %d, want 24", len(regions))
	}
}

func TestSyntheticRegions(t *testing.T) {
	clean := SyntheticRegions(10, false)
	if got := addr.Overlapping(clean); len(got) != 0 {
		t.Errorf("clean regions overlap: %v", got)
	}
	dirty := SyntheticRegions(10, true)
	if got := addr.Overlapping(dirty); len(got) != 1 {
		t.Errorf("planted overlap count = %d, want 1", len(got))
	}
}

func TestSyntheticFeatureModelDeterministic(t *testing.T) {
	a := SyntheticFeatureModel(50, 7)
	b := SyntheticFeatureModel(50, 7)
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("non-deterministic: %d vs %d features", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("non-deterministic at %d: %s vs %s", i, an[i], bn[i])
		}
	}
	if len(an) < 40 {
		t.Errorf("only %d features generated for target 50", len(an))
	}
}

func TestSyntheticDeltaChainApplies(t *testing.T) {
	core, set, err := SyntheticDeltaChain(20)
	if err != nil {
		t.Fatal(err)
	}
	product, trace, err := set.Apply(core, featmodel.ConfigOf())
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(trace) != 20 {
		t.Errorf("trace = %d deltas, want 20", len(trace))
	}
	devs := 0
	for _, c := range product.Root.Children {
		if c.BaseName() == "dev" {
			devs++
		}
	}
	if devs != 20 {
		t.Errorf("devices = %d, want 20", devs)
	}
	// chain must be ordered d0 < d1 < ...
	for i, name := range trace {
		if want := "d" + itoa(i); name != want {
			t.Fatalf("trace[%d] = %s, want %s", i, name, want)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestDetectionMatrixShape(t *testing.T) {
	matrix, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != len(AllFaults()) {
		t.Fatalf("matrix rows = %d, want %d", len(matrix), len(AllFaults()))
	}
	byFault := make(map[Fault]Detection)
	for _, d := range matrix {
		byFault[d.Fault] = d
	}

	// llhsc catches every fault class
	for f, d := range byFault {
		if !d.LLHSC {
			t.Errorf("llhsc missed %v", f)
		}
	}
	// dtc-lint catches exactly the faults visible to a parser:
	// malformed text and nesting past the recursion guard
	for f, d := range byFault {
		if want := f == FaultSyntaxError || f == FaultDeepNesting; d.DtcLint != want {
			t.Errorf("dtc-lint on %v = %v, want %v", f, d.DtcLint, want)
		}
	}
	// the structural baseline catches the structural faults...
	for _, f := range []Fault{FaultMissingRequired, FaultBadConst, FaultBadRegArity} {
		if !byFault[f].Baseline {
			t.Errorf("baseline missed structural fault %v", f)
		}
	}
	// ...and is blind to the semantic/dependency ones (the paper's core claim)
	for _, f := range []Fault{
		FaultAddrOverlap, FaultTruncation, FaultMissingNodeDep,
		FaultDuplicateIRQ, FaultReserveOutsideRAM,
	} {
		if byFault[f].Baseline {
			t.Errorf("baseline should be blind to %v", f)
		}
	}
}

// TestRobustnessFaultsBounded asserts the two solver/parser-hostile
// fault classes come back as structured resource-limit stops — within
// the 2s budget, not hangs or panics.
func TestRobustnessFaultsBounded(t *testing.T) {
	start := time.Now()
	matrix, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("matrix with hostile inputs took %v, want bounded well under 2s", elapsed)
	}
	byFault := make(map[Fault]Detection)
	for _, d := range matrix {
		byFault[d.Fault] = d
	}
	for _, f := range []Fault{FaultPathologicalCNF, FaultDeepNesting} {
		d, ok := byFault[f]
		if !ok {
			t.Fatalf("%v missing from matrix", f)
		}
		if !d.Bounded {
			t.Errorf("%v not reported as a bounded limit stop", f)
		}
		if !d.LLHSC {
			t.Errorf("%v not reported by llhsc", f)
		}
	}
}

func TestTreeConfiguration(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	cfg := TreeConfiguration(tree, model)
	for _, want := range []string{"CustomSBC", "memory", "cpus", "cpu@0", "cpu@1", "uarts", "uart0", "uart1"} {
		if !cfg[want] {
			t.Errorf("feature %s not derived from tree (got %v)", want, cfg.Sorted())
		}
	}
	if cfg["veth0"] || cfg["vEthernet"] {
		t.Errorf("virtual features wrongly selected: %v", cfg.Sorted())
	}
}

func TestPlatformModelRelaxesExclusiveXor(t *testing.T) {
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	platform := PlatformModel(model)
	if platform.Feature("cpus").Group != featmodel.GroupOr {
		t.Error("exclusive CPU XOR should relax to OR in the platform view")
	}
	// vEthernet XOR is not exclusive: stays XOR
	if platform.Feature("vEthernet").Group != featmodel.GroupXor {
		t.Error("non-exclusive XOR groups must be preserved")
	}
	// the core module (both CPUs) is a valid platform
	tree, _ := runningexample.Tree()
	cfg := TreeConfiguration(tree, platform)
	if lits := platform.Conflict(cfg); lits != nil {
		t.Errorf("core module should be a valid platform: %v (%v)", cfg.Sorted(), lits)
	}
}

func TestRunningExamplePipelineOK(t *testing.T) {
	report, err := RunningExamplePipeline()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("violations: %v", report.AllViolations())
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

func TestE10OutputShape(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE10(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"address overlap", "64->32-bit truncation", "missing node dependency"} {
		if !strings.Contains(out, want) {
			t.Errorf("E10 output missing %q:\n%s", want, out)
		}
	}
}

func TestE7EmitsListings(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE7(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"struct platform_desc platform",
		"struct config config",
		"qemu-system-aarch64",
		".cpu_num = 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E7 output missing %q", want)
		}
	}
}

func TestSyntheticProductLine(t *testing.T) {
	pipeline, err := SyntheticProductLine(4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pipeline.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("violations: %v", report.AllViolations())
	}
	if len(report.VMs) != 4 {
		t.Fatalf("VMs = %d", len(report.VMs))
	}
	// each VM keeps exactly one CPU
	for k, vm := range report.VMs {
		cpus := vm.Tree.Lookup("/cpus")
		if got := len(cpus.Children); got != 1 {
			t.Errorf("vm%d has %d CPUs, want 1", k+1, got)
		}
	}
	// platform keeps all CPUs and all UARTs
	if got := len(report.Platform.Tree.Lookup("/cpus").Children); got != 4 {
		t.Errorf("platform CPUs = %d, want 4", got)
	}
}

func TestSyntheticProductLineTooManyVMs(t *testing.T) {
	if _, err := SyntheticProductLine(2, 2, 3); err == nil {
		t.Error("3 VMs over 2 CPUs should be rejected at construction")
	}
}

func TestMeasureParallelRequiresSerialBaseline(t *testing.T) {
	for _, counts := range [][]int{nil, {}, {2, 4, 8}, {4, 1}} {
		if _, err := MeasureParallel(2, counts, 1); err == nil {
			t.Errorf("MeasureParallel(%v) accepted a worker list without a leading serial baseline", counts)
		}
	}
}
