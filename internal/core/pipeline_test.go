package core

import (
	"strings"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

// paperPipeline assembles the full running example.
func paperPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunningExampleEndToEnd(t *testing.T) {
	report, err := paperPipeline(t).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.OK() {
		t.Fatalf("pipeline reported violations: %v", report.AllViolations())
	}

	// VM1 product: cpu@0 only, veth0, 32-bit addressing
	vm1 := report.VMs[0]
	if vm1.Tree.Lookup("/cpus/cpu@1") != nil {
		t.Error("vm1 must not contain cpu@1")
	}
	if vm1.Tree.Lookup("/cpus/cpu@0") == nil {
		t.Error("vm1 must contain cpu@0")
	}
	if vm1.Tree.Lookup("/vEthernet/veth0@80000000") == nil {
		t.Error("vm1 must contain veth0")
	}
	if ac := vm1.Tree.Root.AddressCells(); ac != 1 {
		t.Errorf("vm1 #address-cells = %d, want 1 (delta d3)", ac)
	}
	if !strings.Contains(vm1.DTS, "veth0@80000000") {
		t.Error("vm1 DTS text missing veth0")
	}

	// VM2 product: cpu@1 only, veth1
	vm2 := report.VMs[1]
	if vm2.Tree.Lookup("/cpus/cpu@0") != nil {
		t.Error("vm2 must not contain cpu@0")
	}
	if vm2.Tree.Lookup("/vEthernet/veth1@70000000") == nil {
		t.Error("vm2 must contain veth1")
	}

	// Platform: union has both CPUs and both veths
	if report.Platform.Tree.Lookup("/cpus/cpu@0") == nil ||
		report.Platform.Tree.Lookup("/cpus/cpu@1") == nil {
		t.Error("platform must contain both CPUs")
	}

	// Listing 3 shape
	for _, want := range []string{
		".cpu_num = 2",
		"{ .base = 0x40000000, .size = 0x20000000 }",
		"{ .base = 0x60000000, .size = 0x20000000 }",
		".console = { .base = 0x20000000 }",
		".core_num = (uint8_t[]) {2}",
	} {
		if !strings.Contains(report.Artifacts.PlatformC(), want) {
			t.Errorf("platform C missing %q", want)
		}
	}

	// Listing 6 shape
	for _, want := range []string{
		".vmlist_size = 2",
		".cpu_affinity = 0b1,",
		".cpu_affinity = 0b10,",
		".shmem_id = 0",
		".shmem_id = 1",
		".shmemlist_size = 2",
	} {
		if !strings.Contains(report.Artifacts.ConfigC(), want) {
			t.Errorf("config C missing %q", want)
		}
	}

	if args := report.Artifacts.QEMUArgs(); len(args) == 0 || args[0] != "qemu-system-aarch64" {
		t.Errorf("QEMU args = %v", args)
	}
}

func TestPipelineDetectsTruncationWithBlame(t *testing.T) {
	// Section IV-C: drop d4 from the delta set; the semantic checker
	// must find the collision at 0x0.
	p := paperPipeline(t)
	var kept []*delta.Delta
	for _, d := range p.Deltas.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	set, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = set

	report, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.OK() {
		t.Fatal("omitting d4 must produce violations")
	}
	found := false
	for _, v := range report.VMs[0].Violations {
		if v.Rule == "semantic:overlap" && strings.Contains(v.Message, "address 0x0") {
			found = true
		}
	}
	if !found {
		t.Errorf("vm1 violations = %v; want an overlap at 0x0", report.VMs[0].Violations)
	}
	if report.Artifacts.PlatformC() != "" || report.Artifacts.ConfigC() != "" {
		t.Error("artifacts must not be generated for an invalid product line")
	}
}

func TestPipelineDetectsAllocationConflict(t *testing.T) {
	p := paperPipeline(t)
	// both VMs claim cpu@0
	bad := featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0")
	p.VMConfigs = []featmodel.Configuration{runningexample.VM1Config(), bad}
	report, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Allocation) == 0 {
		t.Fatal("allocation conflict not reported")
	}
	if report.OK() {
		t.Error("report should not be OK")
	}
}

func TestPipelineDetectsAddressClashWithDeltaBlame(t *testing.T) {
	// Section I-A, injected through the product line: a bad delta moves
	// uart1 onto the second memory bank. The violation must blame the
	// delta by name.
	p := paperPipeline(t)
	badDelta := `
delta clash after d6 when uart1 && (veth0 || veth1) {
    modifies uart@30000000 {
        reg = <0x60000000 0x1000>;
    }
}
`
	extra, err := delta.Parse("bad.deltas", runningexample.DeltasSource+badDelta)
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = extra

	report, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.OK() {
		t.Fatal("address clash not detected")
	}
	var blamed bool
	for _, v := range report.AllViolations() {
		if v.Rule == "semantic:overlap" && v.Origin.Delta == "clash" {
			blamed = true
		}
	}
	if !blamed {
		t.Errorf("violations = %v; want an overlap blamed on delta 'clash'", report.AllViolations())
	}
}

func TestPipelineValidation(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Run(); err == nil {
		t.Error("empty pipeline should fail validation")
	}

	full := paperPipeline(t)
	full.FrontEnd = nil
	if err := full.Validate(); err == nil || !strings.Contains(err.Error(), "missing front end") {
		t.Errorf("a nil FrontEnd: Validate = %v, want a missing front end", err)
	}
	full.FrontEnd = &FrontEnd{Core: paperPipeline(t).Core}
	if err := full.Validate(); err == nil || !strings.Contains(err.Error(), "missing delta set") {
		t.Errorf("a FrontEnd without deltas: Validate = %v, want a missing delta set", err)
	}

	full = paperPipeline(t)
	full.VMNames = []string{"only-one"}
	if err := full.Validate(); err == nil {
		t.Error("mismatched VMNames should fail validation")
	}
}

func TestPipelineSingleVMNoVirtualDevices(t *testing.T) {
	// A single VM using all hardware, no veths: no deltas beyond d4
	// apply; the product stays 64-bit and must check out clean.
	p := paperPipeline(t)
	all := featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart0", "uart1")
	p.VMConfigs = []featmodel.Configuration{all}
	p.VMNames = []string{"vm"}
	report, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.OK() {
		t.Fatalf("violations: %v", report.AllViolations())
	}
	if !strings.Contains(report.Artifacts.ConfigC(), ".vmlist_size = 1") {
		t.Error("config should have one VM")
	}
	// d4 ran (when memory) but d3 did not: the tree keeps 2-cell
	// addressing and d4's 4-cell reg reads as one 64-bit bank.
	if ac := report.VMs[0].Tree.Root.AddressCells(); ac != 2 {
		t.Errorf("#address-cells = %d, want 2", ac)
	}
}

func TestReportAllViolationsAggregates(t *testing.T) {
	r := &Report{}
	if len(r.AllViolations()) != 0 || !r.OK() {
		t.Error("empty report should be OK")
	}
}

func TestPipelineAmbiguousDeltasIsError(t *testing.T) {
	p := paperPipeline(t)
	conflicting := `
delta x1 when memory { modifies memory@40000000 { extra = <1>; } }
delta x2 when memory { modifies memory@40000000 { extra = <2>; } }
`
	set, err := delta.Parse("conflict", runningexample.DeltasSource+conflicting)
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = set
	if _, err := p.Run(); err == nil {
		t.Fatal("ambiguous deltas should make Run fail")
	} else if !strings.Contains(err.Error(), "no order") {
		t.Errorf("err = %v", err)
	}
}

func TestPipelineMemReserveViolation(t *testing.T) {
	p := paperPipeline(t)
	p.Core.MemReserves = append(p.Core.MemReserves, dtsMemReserve(0x10000000, 0x1000))
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("memreserve outside RAM should be flagged")
	}
	found := false
	for _, v := range report.AllViolations() {
		if v.Rule == "semantic:memreserve-outside-ram" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v", report.AllViolations())
	}
}

func dtsMemReserve(addr, size uint64) dts.MemReserve {
	return dts.MemReserve{Address: addr, Size: size}
}
