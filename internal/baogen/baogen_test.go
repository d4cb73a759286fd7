package baogen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

// vm1Tree builds the VM1 product DTS (Fig. 1b applied to Listing 1).
func productTree(t *testing.T, cfg featmodel.Configuration) *dts.Tree {
	t.Helper()
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	product, _, err := deltas.Apply(core, cfg)
	if err != nil {
		t.Fatalf("apply deltas: %v", err)
	}
	return product
}

func TestPlatformFromRunningExample(t *testing.T) {
	// platform = union of both VM products (all features selected)
	union := featmodel.PlatformUnion([]featmodel.Configuration{
		runningexample.VM1Config(), runningexample.VM2Config(),
	})
	tree := productTree(t, union)
	p, err := PlatformFromTree(tree)
	if err != nil {
		t.Fatalf("PlatformFromTree: %v", err)
	}
	// Listing 3: two CPUs, two memory regions, console at the first
	// uart, one 2-core cluster.
	if p.CPUNum != 2 {
		t.Errorf("cpu_num = %d, want 2", p.CPUNum)
	}
	if len(p.Regions) != 2 ||
		p.Regions[0] != (MemRegion{Base: 0x40000000, Size: 0x20000000}) ||
		p.Regions[1] != (MemRegion{Base: 0x60000000, Size: 0x20000000}) {
		t.Errorf("regions = %+v", p.Regions)
	}
	if p.ConsoleBase != 0x20000000 {
		t.Errorf("console = %#x, want 0x20000000", p.ConsoleBase)
	}
	if len(p.Clusters) != 1 || p.Clusters[0].CoreNum != 2 {
		t.Errorf("clusters = %+v", p.Clusters)
	}

	c := p.RenderPlatformC()
	for _, want := range []string{
		"#include <platform.h>",
		"struct platform_desc platform",
		".cpu_num = 2",
		".region_num = 2",
		"{ .base = 0x40000000, .size = 0x20000000 }",
		"{ .base = 0x60000000, .size = 0x20000000 }",
		".console = { .base = 0x20000000 }",
		".num = 1, .core_num = (uint8_t[]) {2}",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("platform C missing %q:\n%s", want, c)
		}
	}
}

func TestVMFromRunningExampleProducts(t *testing.T) {
	vm1Tree := productTree(t, runningexample.VM1Config())
	vm1, err := VMFromTree("vm1", vm1Tree)
	if err != nil {
		t.Fatalf("VMFromTree: %v", err)
	}
	if vm1.CPUNum != 1 || vm1.CPUAffinity != 0b01 {
		t.Errorf("vm1 cpus = %d affinity = %#b", vm1.CPUNum, vm1.CPUAffinity)
	}
	if len(vm1.Regions) != 2 || vm1.Regions[0].Base != 0x40000000 {
		t.Errorf("vm1 regions = %+v", vm1.Regions)
	}
	if vm1.ImageBase != 0x40000000 || vm1.Entry != 0x40000000 {
		t.Errorf("vm1 image/entry = %#x/%#x", vm1.ImageBase, vm1.Entry)
	}
	// both uarts selected in Fig. 1b
	if len(vm1.Devices) != 2 || vm1.Devices[0].PA != 0x20000000 || vm1.Devices[1].PA != 0x30000000 {
		t.Errorf("vm1 devs = %+v", vm1.Devices)
	}
	if len(vm1.IPCs) != 1 || vm1.IPCs[0].ShmemID != 0 || vm1.IPCs[0].Base != 0x80000000 {
		t.Errorf("vm1 ipcs = %+v", vm1.IPCs)
	}

	vm2Tree := productTree(t, runningexample.VM2Config())
	vm2, err := VMFromTree("vm2", vm2Tree)
	if err != nil {
		t.Fatal(err)
	}
	if vm2.CPUAffinity != 0b10 {
		t.Errorf("vm2 affinity = %#b, want 0b10", vm2.CPUAffinity)
	}
	if len(vm2.IPCs) != 1 || vm2.IPCs[0].ShmemID != 1 || vm2.IPCs[0].Base != 0x70000000 {
		t.Errorf("vm2 ipcs = %+v", vm2.IPCs)
	}
}

func TestRenderConfigC(t *testing.T) {
	vm1Tree := productTree(t, runningexample.VM1Config())
	vm2Tree := productTree(t, runningexample.VM2Config())
	vm1, err := VMFromTree("vm1", vm1Tree)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := VMFromTree("vm2", vm2Tree)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig([]*VM{vm1, vm2})
	if len(cfg.Shmems) != 2 {
		t.Fatalf("shmems = %+v, want 2 (ids 0 and 1)", cfg.Shmems)
	}
	out := cfg.RenderConfigC()
	for _, want := range []string{
		"#include <config.h>",
		"VM_IMAGE(vm1, vm1image.bin);",
		"VM_IMAGE(vm2, vm2image.bin);",
		".vmlist_size = 2",
		".cpu_affinity = 0b1,",
		".cpu_affinity = 0b10,",
		".entry = 0x40000000",
		"{ .pa = 0x20000000, .va = 0x20000000, .size = 0x1000 }",
		"{ .pa = 0x30000000, .va = 0x30000000, .size = 0x1000 }",
		"{ .base = 0x80000000, .size = 0x10000000, .shmem_id = 0 }",
		"{ .base = 0x70000000, .size = 0x10000000, .shmem_id = 1 }",
		".shmemlist_size = 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("config C missing %q", want)
		}
	}
}

func TestListing6SingleVMAllResources(t *testing.T) {
	// Listing 6 in the paper: ONE VM using all hardware resources of
	// Listing 1 (no partitioning): cpu_num 2, dev_num 2, region_num 2.
	union := featmodel.PlatformUnion([]featmodel.Configuration{
		runningexample.VM1Config(), runningexample.VM2Config(),
	})
	tree := productTree(t, union)
	vm, err := VMFromTree("vm", tree)
	if err != nil {
		t.Fatal(err)
	}
	if vm.CPUNum != 2 || vm.CPUAffinity != 0b11 {
		t.Errorf("cpu_num = %d affinity = %#b, want 2 / 0b11", vm.CPUNum, vm.CPUAffinity)
	}
	if len(vm.Devices) != 2 {
		t.Errorf("dev_num = %d, want 2", len(vm.Devices))
	}
	if len(vm.Regions) != 2 {
		t.Errorf("region_num = %d, want 2", len(vm.Regions))
	}
	out := NewConfig([]*VM{vm}).RenderConfigC()
	for _, want := range []string{
		".cpu_affinity = 0b11",
		".platform = { .cpu_num = 2, .dev_num = 2,",
		".region_num = 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Listing 6 shape missing %q:\n%s", want, out)
		}
	}
}

func TestErrors(t *testing.T) {
	empty := dts.NewTree()
	if _, err := PlatformFromTree(empty); err == nil {
		t.Error("platform without CPUs should fail")
	}
	if _, err := VMFromTree("x", empty); err == nil {
		t.Error("VM without CPUs should fail")
	}

	noMem, err := dts.Parse("m.dts", `
/dts-v1/;
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 { reg = <0x0>; };
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VMFromTree("x", noMem); err == nil || !strings.Contains(err.Error(), "memory") {
		t.Errorf("err = %v, want missing-memory error", err)
	}
}

func TestQEMUArgs(t *testing.T) {
	p := &Platform{
		CPUNum:  2,
		Regions: []MemRegion{{Base: 0x40000000, Size: 0x20000000}, {Base: 0x60000000, Size: 0x20000000}},
	}
	args := QEMUArgs(p, "aarch64")
	joined := strings.Join(args, " ")
	for _, want := range []string{"qemu-system-aarch64", "-smp 2", "-m 1024M"} {
		if !strings.Contains(joined, want) {
			t.Errorf("args %q missing %q", joined, want)
		}
	}
	rv := strings.Join(QEMUArgs(p, "rv64"), " ")
	if !strings.Contains(rv, "qemu-system-riscv64") {
		t.Errorf("rv64 args = %q", rv)
	}
}

// factsOf extracts a tree's facts from a fresh region walk.
func factsOf(tree *dts.Tree) Facts {
	regions, err := addr.CollectRegions(tree)
	return FactsFromRegions(tree, regions, err)
}

// TestFactsMatchBothExtractions: a product's facts, extracted once for
// both roles, equal what VMFromTree and PlatformFromTree extract, once
// named; and an error, named, says what each extraction says.
func TestFactsMatchBothExtractions(t *testing.T) {
	noMem, err := dts.Parse("m.dts", `
/dts-v1/;
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 { reg = <0x0>; };
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*dts.Tree{
		"vm1":       productTree(t, runningexample.VM1Config()),
		"vm2":       productTree(t, runningexample.VM2Config()),
		"no memory": noMem,
		"no cpus":   dts.NewTree(),
	}
	for name, tree := range trees {
		f := factsOf(tree)
		wantVM, wantVMErr := VMFromTree(name, tree)
		gotVM, gotVMErr := f.NamedVM(name)
		if !reflect.DeepEqual(gotVM, wantVM) || fmt.Sprint(gotVMErr) != fmt.Sprint(wantVMErr) {
			t.Errorf("%s: NamedVM = %+v, %v; VMFromTree = %+v, %v", name, gotVM, gotVMErr, wantVM, wantVMErr)
		}
		if f.VM != nil && f.VM.Name != "" {
			t.Errorf("%s: the facts' VM is named %q", name, f.VM.Name)
		}
		wantPlatform, wantPlatformErr := PlatformFromTree(tree)
		if !reflect.DeepEqual(f.Platform, wantPlatform) || fmt.Sprint(f.PlatformErr) != fmt.Sprint(wantPlatformErr) {
			t.Errorf("%s: Platform = %+v, %v; PlatformFromTree = %+v, %v",
				name, f.Platform, f.PlatformErr, wantPlatform, wantPlatformErr)
		}
	}
	f := factsOf(noMem)
	if _, err := f.NamedVM("vm7"); err == nil || err.Error() != "baogen: VM vm7 has no memory regions" {
		t.Errorf("named error = %v", err)
	}
}

// TestCheckShmems pins the shmem rule: ids below the bound, windows on
// one id of one size. A break names the first VM that has it, and the
// list NewConfig then builds is as long as the largest id.
func TestCheckShmems(t *testing.T) {
	vm := func(name string, ipcs ...IPC) *VM { return &VM{Name: name, IPCs: ipcs} }
	for _, c := range []struct {
		name string
		vms  []*VM
		want string // "" = passes
	}{
		{"none", []*VM{vm("a"), vm("b")}, ""},
		{"dense", []*VM{vm("a", IPC{Size: 1, ShmemID: 1}), vm("b", IPC{Size: 2, ShmemID: 0})}, ""},
		{"shared", []*VM{vm("a", IPC{Size: 1, ShmemID: 0}), vm("b", IPC{Size: 1, ShmemID: 0})}, ""},
		{"gap", []*VM{vm("a", IPC{Size: 1, ShmemID: 1})}, ""},
		{"past the bound", []*VM{vm("a", IPC{ShmemID: 1}), vm("b", IPC{ShmemID: 2})},
			"baogen: VM b has IPC shmem id 2, not below 2, the IPC windows its product line declares"},
		{"negative", []*VM{vm("a", IPC{ShmemID: -1})}, "VM a has IPC shmem id -1, not below 2"},
		{"sizes differ", []*VM{vm("a", IPC{Size: 1, ShmemID: 0}), vm("b", IPC{Size: 0x10, ShmemID: 0})},
			"baogen: VM b has IPC shmem id 0 of 0x10 bytes, where an earlier window has 0x1"},
	} {
		err := CheckShmems(c.vms, 2)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if ve, ok := err.(*VMError); !ok || !strings.Contains(ve.Error(), c.want) {
			t.Errorf("%s: %v; want a *VMError, %q", c.name, err, c.want)
		}
	}
	cfg := NewConfig([]*VM{vm("a", IPC{Size: 1, ShmemID: 1})})
	if !reflect.DeepEqual(cfg.Shmems, []Shmem{{Size: 0}, {Size: 1}}) {
		t.Errorf("NewConfig over a gap = %v, want an unused shmem 0", cfg.Shmems)
	}
}
