package baogen

import (
	"strings"
	"testing"

	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

func TestJailhouseCell(t *testing.T) {
	vm1Tree := productTree(t, runningexample.VM1Config())
	vm, err := VMFromTree("vm1", vm1Tree)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderJailhouseCellC(vm)
	for _, want := range []string{
		"JAILHOUSE_CELL_DESC_SIGNATURE",
		`.name = "vm1"`,
		".cpus = {0b1},",
		".phys_start = 0x40000000",
		".phys_start = 0x20000000", // uart0 device
		"JAILHOUSE_MEM_IO",
		"JAILHOUSE_MEM_ROOTSHARED", // the veth IPC window
		".phys_start = 0x80000000", // veth0
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cell config missing %q", want)
		}
	}
}

func TestJailhouseRoot(t *testing.T) {
	union := featmodel.PlatformUnion([]featmodel.Configuration{
		runningexample.VM1Config(), runningexample.VM2Config(),
	})
	tree := productTree(t, union)
	p, err := PlatformFromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderJailhouseRootC(p)
	for _, want := range []string{
		"JAILHOUSE_SYSTEM_SIGNATURE",
		".cpus = {0b11},",
		".phys_start = 0x40000000",
		".phys_start = 0x60000000",
		"/* console */",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("root config missing %q", want)
		}
	}
}

func TestJailhouseMemFlagsString(t *testing.T) {
	tests := []struct {
		f    JailhouseMemFlags
		want string
	}{
		{JailhouseMemFlags{}, "0"},
		{JailhouseMemFlags{Read: true}, "JAILHOUSE_MEM_READ"},
		{JailhouseMemFlags{Read: true, Write: true, Execute: true},
			"JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_EXECUTE"},
		{JailhouseMemFlags{IO: true}, "JAILHOUSE_MEM_IO"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("flags %+v = %q, want %q", tt.f, got, tt.want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = tt.f.String() }); n != 0 {
			t.Errorf("flags %+v: String allocates %.0f times, want 0", tt.f, n)
		}
	}
}
