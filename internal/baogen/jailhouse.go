package baogen

import (
	"strconv"
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
func RenderJailhouseCellC(vm *VM) string { return string(AppendJailhouseCellC(nil, vm)) }

// Region flags of the Jailhouse configurations: RAM, pass-through
// devices (and the root cell's console), and IPC windows.
var (
	jailhouseRAMFlags = JailhouseMemFlags{Read: true, Write: true, Execute: true}.String()
	jailhouseDevFlags = JailhouseMemFlags{Read: true, Write: true, IO: true}.String()
	jailhouseIPCFlags = JailhouseMemFlags{Read: true, Write: true}.String() + " | JAILHOUSE_MEM_ROOTSHARED"
)

// AppendJailhouseCellC appends RenderJailhouseCellC's text to dst.
func AppendJailhouseCellC(dst []byte, vm *VM) []byte {
	b := append(dst, "#include <jailhouse/cell-config.h>\n\n"...)
	b = append(b, "struct {\n"...)
	b = append(b, "\tstruct jailhouse_cell_desc cell;\n"...)
	b = append(b, "\t__u64 cpus[1];\n"...)
	b = appendInt(append(b, "\tstruct jailhouse_memory mem_regions["...),
		len(vm.Regions)+len(vm.Devices)+len(vm.IPCs))
	b = append(b, "];\n"...)
	b = append(b, "} __attribute__((packed)) config = {\n"...)

	b = append(b, "\t.cell = {\n"...)
	b = append(b, "\t\t.signature = JAILHOUSE_CELL_DESC_SIGNATURE,\n"...)
	b = append(b, "\t\t.revision = JAILHOUSE_CONFIG_REVISION,\n"...)
	b = strconv.AppendQuote(append(b, "\t\t.name = "...), vm.Name)
	b = append(b, ",\n"...)
	b = append(b, "\t\t.flags = JAILHOUSE_CELL_PASSIVE_COMMREG,\n"...)
	b = append(b, "\t\t.cpu_set_size = sizeof(config.cpus),\n"...)
	b = append(b, "\t\t.num_memory_regions = ARRAY_SIZE(config.mem_regions),\n"...)
	b = append(b, "\t},\n\n"...)

	b = strconv.AppendUint(append(b, "\t.cpus = {0b"...), vm.CPUAffinity, 2)
	b = append(b, "},\n\n"...)

	b = append(b, "\t.mem_regions = {\n"...)
	for _, r := range vm.Regions {
		b = appendJailhouseRegion(append(b, "\t\t/* RAM"...), r.Base, r.Base, r.Size, jailhouseRAMFlags)
	}
	for _, d := range vm.Devices {
		b = appendJailhouseRegion(append(b, "\t\t/* device"...), d.PA, d.VA, d.Size, jailhouseDevFlags)
	}
	for _, ipc := range vm.IPCs {
		b = appendInt(append(b, "\t\t/* ipc shmem "...), ipc.ShmemID)
		b = appendJailhouseRegion(b, ipc.Base, ipc.Base, ipc.Size, jailhouseIPCFlags)
	}
	b = append(b, "\t},\n"...)
	return append(b, "};\n"...)
}

// appendJailhouseRegion appends the rest of one mem_regions block,
// whose opening comment b already holds up to its closing "*/".
func appendJailhouseRegion(b []byte, phys, virt, size uint64, flags string) []byte {
	b = appendHex(append(b, " */ {\n\t\t\t.phys_start = 0x"...), phys)
	b = appendHex(append(b, ",\n\t\t\t.virt_start = 0x"...), virt)
	b = appendHex(append(b, ",\n\t\t\t.size = 0x"...), size)
	b = append(append(b, ",\n\t\t\t.flags = "...), flags...)
	return append(b, ",\n\t\t},\n"...)
}

// RenderJailhouseRootC renders the platform as the Jailhouse root-cell
// (system) configuration.
func RenderJailhouseRootC(p *Platform) string { return string(AppendJailhouseRootC(nil, p)) }

// AppendJailhouseRootC appends RenderJailhouseRootC's text to dst.
func AppendJailhouseRootC(dst []byte, p *Platform) []byte {
	b := append(dst, "#include <jailhouse/cell-config.h>\n\n"...)
	b = append(b, "struct {\n"...)
	b = append(b, "\tstruct jailhouse_system header;\n"...)
	b = append(b, "\t__u64 cpus[1];\n"...)
	b = appendInt(append(b, "\tstruct jailhouse_memory mem_regions["...), len(p.Regions)+1)
	b = append(b, "];\n"...)
	b = append(b, "} __attribute__((packed)) config = {\n"...)

	b = append(b, "\t.header = {\n"...)
	b = append(b, "\t\t.signature = JAILHOUSE_SYSTEM_SIGNATURE,\n"...)
	b = append(b, "\t\t.revision = JAILHOUSE_CONFIG_REVISION,\n"...)
	b = append(b, "\t\t.root_cell = {\n"...)
	b = append(b, "\t\t\t.name = \"root\",\n"...)
	b = append(b, "\t\t\t.cpu_set_size = sizeof(config.cpus),\n"...)
	b = append(b, "\t\t\t.num_memory_regions = ARRAY_SIZE(config.mem_regions),\n"...)
	b = append(b, "\t\t},\n"...)
	b = append(b, "\t},\n\n"...)

	mask := uint64(1)<<uint(p.CPUNum) - 1
	b = strconv.AppendUint(append(b, "\t.cpus = {0b"...), mask, 2)
	b = append(b, "},\n\n"...)

	b = append(b, "\t.mem_regions = {\n"...)
	for _, r := range p.Regions {
		b = appendJailhouseRegion(append(b, "\t\t/* RAM"...), r.Base, r.Base, r.Size, jailhouseRAMFlags)
	}
	if p.ConsoleBase != 0 {
		b = appendJailhouseRegion(append(b, "\t\t/* console"...), p.ConsoleBase, p.ConsoleBase, 0x1000, jailhouseDevFlags)
	}
	b = append(b, "\t},\n"...)
	return append(b, "};\n"...)
}
