// Package baogen generates configuration artifacts for the Bao
// static-partitioning hypervisor from checked DeviceTrees, performing
// the source-to-source transformation of Section III-B: a platform
// description C file (the paper's Listing 3) from the platform DTS and
// a VM-list configuration C file (Listing 6) from the per-VM DTSs. A
// QEMU invocation synthesizer covers the paper's note that the
// generated configurations also serve other virtualization solutions.
package baogen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
)

// MemRegion is one physical memory region.
type MemRegion struct {
	Base uint64
	Size uint64
}

// Cluster is one CPU cluster.
type Cluster struct {
	CoreNum int
}

// Platform is the hypervisor platform description (Listing 3).
type Platform struct {
	CPUNum      int
	Regions     []MemRegion
	ConsoleBase uint64
	Clusters    []Cluster
}

// DevRegion is a pass-through device mapping in a VM configuration.
type DevRegion struct {
	PA   uint64
	VA   uint64
	Size uint64
}

// IPC is an inter-VM communication object (the virtual Ethernet
// devices of the running example map to these).
type IPC struct {
	Base    uint64
	Size    uint64
	ShmemID int
}

// Shmem is a shared-memory object backing an IPC.
type Shmem struct {
	Size uint64
}

// VM is one guest's configuration (one entry of Listing 6's vmlist).
type VM struct {
	Name        string
	ImageBase   uint64
	Entry       uint64
	CPUAffinity uint64 // bitmask over physical CPUs
	CPUNum      int
	Regions     []MemRegion
	Devices     []DevRegion
	IPCs        []IPC
}

// Config is the complete hypervisor configuration: the VM list plus the
// shared-memory objects referenced by the VMs' IPCs.
type Config struct {
	VMs    []*VM
	Shmems []Shmem
}

// Facts holds the tree-free artifact facts of one product in both
// roles it can play: as a VM (VMFromTree, unnamed) and as the platform
// (PlatformFromTree), each with its error. A product's facts are a pure
// function of its tree, so a caller may keep them after dropping the
// tree and share them between requests: nothing may edit them.
type Facts struct {
	VM          *VM // Name is empty: NamedVM names a copy
	VMErr       *VMError
	Platform    *Platform
	PlatformErr error
}

// FactsFromRegions extracts a product's facts in both roles from its
// tree and the tree's address regions and their decoding error
// (addr.CollectRegions), already collected: a checked product reuses
// the walk its semantic family made.
func FactsFromRegions(tree *dts.Tree, regions []addr.Region, err error) Facts {
	var f Facts
	f.VM, f.VMErr = vmFromRegions(tree, regions, err)
	f.Platform, f.PlatformErr = platformFromRegions(tree, regions, err)
	return f
}

// NamedVM returns the product's VM configuration named name, or its
// error naming name.
func (f *Facts) NamedVM(name string) (*VM, error) {
	if f.VMErr != nil {
		return nil, f.VMErr.Named(name)
	}
	return f.VM.Named(name), nil
}

// PlatformFromTree extracts the platform description from the platform
// DTS (the union product of Section III-A).
func PlatformFromTree(tree *dts.Tree) (*Platform, error) {
	regions, err := addr.CollectRegions(tree)
	return platformFromRegions(tree, regions, err)
}

// platformFromRegions is PlatformFromTree over the tree's regions and
// their decoding error, already collected.
func platformFromRegions(tree *dts.Tree, regions []addr.Region, regionsErr error) (*Platform, error) {
	p := &Platform{}

	if cpus := tree.Lookup("/cpus"); cpus != nil {
		n := 0
		for _, c := range cpus.Children {
			if c.BaseName() == "cpu" {
				n++
			}
		}
		p.CPUNum = n
		if n > 0 {
			p.Clusters = []Cluster{{CoreNum: n}}
		}
	}
	if p.CPUNum == 0 {
		return nil, fmt.Errorf("baogen: platform has no CPUs")
	}
	if regionsErr != nil {
		return nil, fmt.Errorf("baogen: %w", regionsErr)
	}
	var consoles []uint64
	for _, r := range regions {
		switch {
		case r.Kind == addr.KindMemory:
			p.Regions = append(p.Regions, MemRegion{Base: r.Base, Size: r.Size})
		case strings.HasPrefix(r.Path, "/uart"):
			consoles = append(consoles, r.Base)
		}
	}
	if len(p.Regions) == 0 {
		return nil, fmt.Errorf("baogen: platform has no memory regions")
	}
	sort.Slice(p.Regions, func(i, j int) bool { return p.Regions[i].Base < p.Regions[j].Base })
	if len(consoles) > 0 {
		sort.Slice(consoles, func(i, j int) bool { return consoles[i] < consoles[j] })
		p.ConsoleBase = consoles[0]
	}
	return p, nil
}

// A VMError reports a VM product that yields no configuration.
// FactsFromRegions records it with VM empty, since a product knows no
// name; Named fills it in.
type VMError struct {
	VM     string
	Reason string // what the product lacks, when Err is nil
	Err    error  // the product's region decoding error, if that is the cause
}

func (e *VMError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("baogen: VM %s: %v", e.VM, e.Err)
	}
	return fmt.Sprintf("baogen: VM %s %s", e.VM, e.Reason)
}

// Unwrap returns the region decoding error, if that is the cause.
func (e *VMError) Unwrap() error { return e.Err }

// Named returns a copy of e naming VM name.
func (e *VMError) Named(name string) *VMError {
	named := *e
	named.VM = name
	return &named
}

// VMFromTree extracts one VM's configuration from its product DTS.
// Physical CPU numbers for the affinity mask come from the cpu nodes'
// reg identifiers. Virtual Ethernet nodes become IPC objects whose
// shmem id is the veth's id property. Its error is a *VMError.
func VMFromTree(name string, tree *dts.Tree) (*VM, error) {
	regions, err := addr.CollectRegions(tree)
	vm, verr := vmFromRegions(tree, regions, err)
	if verr != nil {
		return nil, verr.Named(name)
	}
	vm.Name = name
	return vm, nil
}

// vmFromRegions extracts a VM's configuration, unnamed, from its
// product tree and the tree's regions and their decoding error, already
// collected.
func vmFromRegions(tree *dts.Tree, regions []addr.Region, regionsErr error) (*VM, *VMError) {
	vm := &VM{}

	if cpus := tree.Lookup("/cpus"); cpus != nil {
		for _, c := range cpus.Children {
			if c.BaseName() != "cpu" {
				continue
			}
			vm.CPUNum++
			if id, ok := c.CellValue("reg"); ok {
				vm.CPUAffinity |= 1 << uint(id)
			}
		}
	}
	if vm.CPUNum == 0 {
		return nil, &VMError{Reason: "has no CPUs"}
	}
	if regionsErr != nil {
		return nil, &VMError{Err: regionsErr}
	}
	for _, r := range regions {
		switch {
		case r.Kind == addr.KindMemory:
			vm.Regions = append(vm.Regions, MemRegion{Base: r.Base, Size: r.Size})
		case r.Kind == addr.KindVirtual:
			node := tree.Lookup(r.Path)
			id := 0
			if node != nil {
				if v, ok := node.CellValue("id"); ok {
					id = int(v)
				}
			}
			vm.IPCs = append(vm.IPCs, IPC{Base: r.Base, Size: r.Size, ShmemID: id})
		default:
			vm.Devices = append(vm.Devices, DevRegion{PA: r.Base, VA: r.Base, Size: r.Size})
		}
	}
	if len(vm.Regions) == 0 {
		return nil, &VMError{Reason: "has no memory regions"}
	}
	sort.Slice(vm.Regions, func(i, j int) bool { return vm.Regions[i].Base < vm.Regions[j].Base })
	sort.Slice(vm.Devices, func(i, j int) bool { return vm.Devices[i].PA < vm.Devices[j].PA })
	sort.Slice(vm.IPCs, func(i, j int) bool { return vm.IPCs[i].Base < vm.IPCs[j].Base })
	vm.ImageBase = vm.Regions[0].Base
	vm.Entry = vm.Regions[0].Base
	return vm, nil
}

// Named returns a copy of vm named name. The copy shares vm's slices,
// which neither may edit.
func (vm *VM) Named(name string) *VM {
	named := *vm
	named.Name = name
	return &named
}

// NewConfig assembles the full hypervisor configuration, deriving the
// shared-memory list from the VMs' IPC ids: shmem i is sized like the
// largest IPC window whose id is i. The list is as long as the largest
// id, so the VMs must pass CheckShmems first.
func NewConfig(vms []*VM) *Config {
	n := 0
	for _, vm := range vms {
		for _, ipc := range vm.IPCs {
			n = max(n, ipc.ShmemID+1)
		}
	}
	cfg := &Config{VMs: vms, Shmems: make([]Shmem, n)}
	for _, vm := range vms {
		for _, ipc := range vm.IPCs {
			cfg.Shmems[ipc.ShmemID].Size = max(cfg.Shmems[ipc.ShmemID].Size, ipc.Size)
		}
	}
	return cfg
}

// CheckShmems holds the VMs' IPC windows to Bao's rule that an IPC's
// .shmem_id indexes the shmemlist (DESIGN.md §7): every id must be
// below bound, the number of IPC windows the product line declares,
// and windows that share an id share one object, so they must agree on
// its size. A break is a *VMError naming the first such VM and the id.
func CheckShmems(vms []*VM, bound int) error {
	first := make([]*IPC, bound) // first[id]: the first window with that id
	for _, vm := range vms {
		for i := range vm.IPCs {
			switch ipc, id := &vm.IPCs[i], vm.IPCs[i].ShmemID; {
			case id < 0 || id >= bound:
				return &VMError{VM: vm.Name, Reason: fmt.Sprintf(
					"has IPC shmem id %d, not below %d, the IPC windows its product line declares", id, bound)}
			case first[id] == nil:
				first[id] = ipc
			case first[id].Size != ipc.Size:
				return &VMError{VM: vm.Name, Reason: fmt.Sprintf(
					"has IPC shmem id %d of %#x bytes, where an earlier window has %#x", id, ipc.Size, first[id].Size)}
			}
		}
	}
	return nil
}

// RenderPlatformC renders the platform description in the format of the
// paper's Listing 3.
func (p *Platform) RenderPlatformC() string { return string(p.AppendPlatformC(nil)) }

// AppendPlatformC appends RenderPlatformC's text to dst.
func (p *Platform) AppendPlatformC(dst []byte) []byte {
	b := append(dst, "#include <platform.h>\n\n"...)
	b = append(b, "struct platform_desc platform = {\n"...)
	b = appendInt(append(b, "  .cpu_num = "...), p.CPUNum)
	b = appendInt(append(b, ",\n  .region_num = "...), len(p.Regions))
	b = append(b, ",\n  .regions =  (struct mem_region[]) {\n"...)
	for _, r := range p.Regions {
		b = appendHex(append(b, "    { .base = 0x"...), r.Base)
		b = appendHex(append(b, ", .size = 0x"...), r.Size)
		b = append(b, " },\n"...)
	}
	b = append(b, "  },\n\n"...)
	if p.ConsoleBase != 0 {
		b = appendHex(append(b, "  .console = { .base = 0x"...), p.ConsoleBase)
		b = append(b, " },\n\n"...)
	}
	b = append(b, "  .arch = {\n"...)
	b = append(b, "    .clusters =  {\n"...)
	b = appendInt(append(b, "      .num = "...), len(p.Clusters))
	b = append(b, ", .core_num = (uint8_t[]) {"...)
	for i, c := range p.Clusters {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendInt(b, c.CoreNum)
	}
	b = append(b, "}\n"...)
	b = append(b, "    },\n"...)
	b = append(b, "  }\n"...)
	return append(b, "};\n"...)
}

// RenderConfigC renders the VM-list configuration in the format of the
// paper's Listing 6.
func (c *Config) RenderConfigC() string { return string(c.AppendConfigC(nil)) }

// AppendConfigC appends RenderConfigC's text to dst.
func (c *Config) AppendConfigC(dst []byte) []byte {
	b := append(dst, "#include <config.h>\n\n"...)
	for _, vm := range c.VMs {
		b = append(append(b, "VM_IMAGE("...), vm.Name...)
		b = append(append(b, ", "...), vm.Name...)
		b = append(b, "image.bin);\n"...)
	}
	b = append(b, "\nstruct config config = {\n"...)
	b = append(b, "  CONFIG_HEADER\n"...)
	b = appendInt(append(b, "  .vmlist_size = "...), len(c.VMs))
	b = append(b, ",\n  .vmlist = {\n"...)
	for _, vm := range c.VMs {
		b = append(b, "    {\n"...)
		b = append(b, "      .image = {\n"...)
		b = appendHex(append(b, "        .base_addr = 0x"...), vm.ImageBase)
		b = append(append(b, ",\n        .load_addr = VM_IMAGE_OFFSET("...), vm.Name...)
		b = append(append(b, "),\n        .size = VM_IMAGE_SIZE("...), vm.Name...)
		b = append(b, ")\n      },\n"...)
		b = appendHex(append(b, "      .entry = 0x"...), vm.Entry)
		b = strconv.AppendUint(append(b, ",\n      .cpu_affinity = 0b"...), vm.CPUAffinity, 2)
		b = appendInt(append(b, ",\n      .platform = { .cpu_num = "...), vm.CPUNum)
		b = appendInt(append(b, ", .dev_num = "...), len(vm.Devices))
		b = appendInt(append(b, ",\n        .region_num = "...), len(vm.Regions))
		b = append(b, ",\n        .regions =  (struct mem_region[]) {\n"...)
		for _, r := range vm.Regions {
			b = appendHex(append(b, "          { .base = 0x"...), r.Base)
			b = appendHex(append(b, ", .size = 0x"...), r.Size)
			b = append(b, " },\n"...)
		}
		b = append(b, "        },\n"...)
		if len(vm.Devices) > 0 {
			b = append(b, "        .devs =  (struct dev_region[]) {\n"...)
			for _, d := range vm.Devices {
				b = appendHex(append(b, "          { .pa = 0x"...), d.PA)
				b = appendHex(append(b, ", .va = 0x"...), d.VA)
				b = appendHex(append(b, ", .size = 0x"...), d.Size)
				b = append(b, " },\n"...)
			}
			b = append(b, "        },\n"...)
		}
		if len(vm.IPCs) > 0 {
			b = appendInt(append(b, "        .ipc_num = "...), len(vm.IPCs))
			b = append(b, ",\n        .ipcs =  (struct ipc[]) {\n"...)
			for _, ipc := range vm.IPCs {
				b = appendHex(append(b, "          { .base = 0x"...), ipc.Base)
				b = appendHex(append(b, ", .size = 0x"...), ipc.Size)
				b = appendInt(append(b, ", .shmem_id = "...), ipc.ShmemID)
				b = append(b, " },\n"...)
			}
			b = append(b, "        },\n"...)
		}
		b = append(b, "      },\n"...)
		b = append(b, "    },\n"...)
	}
	b = append(b, "  },\n"...)
	if len(c.Shmems) > 0 {
		b = appendInt(append(b, "  .shmemlist_size = "...), len(c.Shmems))
		b = append(b, ",\n  .shmemlist = (struct shmem[]) {\n"...)
		for i, s := range c.Shmems {
			b = appendInt(append(b, "    ["...), i)
			b = appendHex08(append(b, "] = { .size = 0x"...), s.Size)
			b = append(b, " },\n"...)
		}
		b = append(b, "  },\n"...)
	}
	return append(b, "};\n"...)
}

// appendInt appends v in decimal, as %d writes it.
func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendHex appends v in lower-case hexadecimal, as %x writes it.
func appendHex(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 16) }

// appendHex08 appends v as %08x writes it: hexadecimal, zero-padded to
// at least eight digits.
func appendHex08(b []byte, v uint64) []byte {
	for shift := 28; shift >= 4 && v>>shift == 0; shift -= 4 {
		b = append(b, '0')
	}
	return appendHex(b, v)
}

// QEMUArgs synthesizes a qemu-system invocation matching the platform,
// covering the paper's claim that the generated configurations can also
// drive QEMU-based virtual platforms (Section V).
func QEMUArgs(p *Platform, arch string) []string {
	return strings.Split(string(AppendQEMUArgs(nil, p, arch, "\x00")), "\x00")
}

// AppendQEMUArgs appends QEMUArgs(p, arch) to dst, the arguments
// separated by sep. No argument holds a NUL, a quote, a backslash, a
// control byte, <, > or &, so with sep `", "` the text between two
// quotes is a JSON string array's body.
func AppendQEMUArgs(dst []byte, p *Platform, arch, sep string) []byte {
	var total uint64
	for _, r := range p.Regions {
		total += r.Size
	}
	bin, cpu := "qemu-system-aarch64", "cortex-a53"
	if arch == "rv64" {
		bin, cpu = "qemu-system-riscv64", "rv64"
	}
	b := append(dst, bin...)
	b = append(append(append(b, sep...), "-machine"...), sep...)
	b = append(append(b, "virt"...), sep...)
	b = append(append(append(b, "-cpu"...), sep...), cpu...)
	b = append(append(append(b, sep...), "-smp"...), sep...)
	b = appendInt(b, p.CPUNum)
	b = append(append(append(b, sep...), "-m"...), sep...)
	b = append(strconv.AppendUint(b, total/(1024*1024), 10), 'M')
	b = append(append(b, sep...), "-nographic"...)
	b = append(append(append(b, sep...), "-serial"...), sep...)
	return append(b, "mon:stdio"...)
}
