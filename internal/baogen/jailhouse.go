package baogen

import (
	"fmt"
	"strings"
)

// This file generates Jailhouse cell configurations, covering the
// paper's remark that partitioning hypervisors "like Jailhouse can also
// be supported" (Section I). Jailhouse structures partitions as a root
// cell (all hardware) plus one non-root cell per guest; memory regions
// and devices map to JAILHOUSE_MEM_* flagged regions.

// JailhouseMemFlags are the access flags of a jailhouse memory region.
type JailhouseMemFlags struct {
	Read    bool
	Write   bool
	Execute bool
	IO      bool
}

// jailhouseMemFlagText is String's result for each of the 16 flag
// sets, indexed by bits: Read 1, Write 2, Execute 4, IO 8. Every
// rendered region writes its flags, so each text is joined once here
// rather than once per region.
var jailhouseMemFlagText = func() (text [16]string) {
	names := [...]string{"JAILHOUSE_MEM_READ", "JAILHOUSE_MEM_WRITE", "JAILHOUSE_MEM_EXECUTE", "JAILHOUSE_MEM_IO"}
	for set := range text {
		var parts []string
		for bit, name := range names {
			if set&(1<<bit) != 0 {
				parts = append(parts, name)
			}
		}
		text[set] = "0"
		if len(parts) > 0 {
			text[set] = strings.Join(parts, " | ")
		}
	}
	return text
}()

func (f JailhouseMemFlags) String() string {
	set := 0
	for bit, on := range [...]bool{f.Read, f.Write, f.Execute, f.IO} {
		if on {
			set |= 1 << bit
		}
	}
	return jailhouseMemFlagText[set]
}

// RenderJailhouseCellC renders one VM as a Jailhouse non-root cell
// configuration C file.
func RenderJailhouseCellC(vm *VM) string {
	var b strings.Builder
	b.Grow(jailhouseCellBytes(vm))
	b.WriteString("#include <jailhouse/cell-config.h>\n\n")
	b.WriteString("struct {\n")
	b.WriteString("\tstruct jailhouse_cell_desc cell;\n")
	fmt.Fprintf(&b, "\t__u64 cpus[1];\n")
	fmt.Fprintf(&b, "\tstruct jailhouse_memory mem_regions[%d];\n",
		len(vm.Regions)+len(vm.Devices)+len(vm.IPCs))
	b.WriteString("} __attribute__((packed)) config = {\n")

	b.WriteString("\t.cell = {\n")
	b.WriteString("\t\t.signature = JAILHOUSE_CELL_DESC_SIGNATURE,\n")
	b.WriteString("\t\t.revision = JAILHOUSE_CONFIG_REVISION,\n")
	fmt.Fprintf(&b, "\t\t.name = %q,\n", vm.Name)
	b.WriteString("\t\t.flags = JAILHOUSE_CELL_PASSIVE_COMMREG,\n")
	b.WriteString("\t\t.cpu_set_size = sizeof(config.cpus),\n")
	b.WriteString("\t\t.num_memory_regions = ARRAY_SIZE(config.mem_regions),\n")
	b.WriteString("\t},\n\n")

	fmt.Fprintf(&b, "\t.cpus = {0b%b},\n\n", vm.CPUAffinity)

	b.WriteString("\t.mem_regions = {\n")
	ram := JailhouseMemFlags{Read: true, Write: true, Execute: true}
	dev := JailhouseMemFlags{Read: true, Write: true, IO: true}
	shared := JailhouseMemFlags{Read: true, Write: true}
	for _, r := range vm.Regions {
		writeJailhouseRegion(&b, "RAM", r.Base, r.Base, r.Size, ram.String())
	}
	for _, d := range vm.Devices {
		writeJailhouseRegion(&b, "device", d.PA, d.VA, d.Size, dev.String())
	}
	ipcFlags := shared.String() + " | JAILHOUSE_MEM_ROOTSHARED"
	for _, ipc := range vm.IPCs {
		writeJailhouseRegion(&b, fmt.Sprintf("ipc shmem %d", ipc.ShmemID),
			ipc.Base, ipc.Base, ipc.Size, ipcFlags)
	}
	b.WriteString("\t},\n")
	b.WriteString("};\n")
	return b.String()
}

// jailhouseCellBytes estimates RenderJailhouseCellC's output length.
func jailhouseCellBytes(vm *VM) int {
	return jailhouseFixedBytes + len(vm.Name) +
		jailhouseRegionBytes*(len(vm.Regions)+len(vm.Devices)+len(vm.IPCs))
}

func writeJailhouseRegion(b *strings.Builder, comment string, phys, virt, size uint64, flags string) {
	fmt.Fprintf(b, "\t\t/* %s */ {\n", comment)
	fmt.Fprintf(b, "\t\t\t.phys_start = 0x%x,\n", phys)
	fmt.Fprintf(b, "\t\t\t.virt_start = 0x%x,\n", virt)
	fmt.Fprintf(b, "\t\t\t.size = 0x%x,\n", size)
	fmt.Fprintf(b, "\t\t\t.flags = %s,\n", flags)
	b.WriteString("\t\t},\n")
}

// RenderJailhouseRootC renders the platform as the Jailhouse root-cell
// (system) configuration.
func RenderJailhouseRootC(p *Platform) string {
	var b strings.Builder
	b.Grow(jailhouseRootBytes(p))
	b.WriteString("#include <jailhouse/cell-config.h>\n\n")
	b.WriteString("struct {\n")
	b.WriteString("\tstruct jailhouse_system header;\n")
	b.WriteString("\t__u64 cpus[1];\n")
	fmt.Fprintf(&b, "\tstruct jailhouse_memory mem_regions[%d];\n", len(p.Regions)+1)
	b.WriteString("} __attribute__((packed)) config = {\n")

	b.WriteString("\t.header = {\n")
	b.WriteString("\t\t.signature = JAILHOUSE_SYSTEM_SIGNATURE,\n")
	b.WriteString("\t\t.revision = JAILHOUSE_CONFIG_REVISION,\n")
	b.WriteString("\t\t.root_cell = {\n")
	b.WriteString("\t\t\t.name = \"root\",\n")
	b.WriteString("\t\t\t.cpu_set_size = sizeof(config.cpus),\n")
	b.WriteString("\t\t\t.num_memory_regions = ARRAY_SIZE(config.mem_regions),\n")
	b.WriteString("\t\t},\n")
	b.WriteString("\t},\n\n")

	mask := uint64(1)<<uint(p.CPUNum) - 1
	fmt.Fprintf(&b, "\t.cpus = {0b%b},\n\n", mask)

	b.WriteString("\t.mem_regions = {\n")
	ram := JailhouseMemFlags{Read: true, Write: true, Execute: true}
	dev := JailhouseMemFlags{Read: true, Write: true, IO: true}
	for _, r := range p.Regions {
		writeJailhouseRegion(&b, "RAM", r.Base, r.Base, r.Size, ram.String())
	}
	if p.ConsoleBase != 0 {
		writeJailhouseRegion(&b, "console", p.ConsoleBase, p.ConsoleBase, 0x1000, dev.String())
	}
	b.WriteString("\t},\n")
	b.WriteString("};\n")
	return b.String()
}

// jailhouseRootBytes estimates RenderJailhouseRootC's output length: one
// block per region plus the console's.
func jailhouseRootBytes(p *Platform) int {
	return jailhouseFixedBytes + jailhouseRegionBytes*(len(p.Regions)+1)
}
