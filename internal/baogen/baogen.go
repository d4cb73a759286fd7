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
// shared-memory list from the VMs' IPC ids (one shmem per distinct id,
// sized like the largest IPC window that references it).
func NewConfig(vms []*VM) *Config {
	maxID := -1
	sizes := make(map[int]uint64)
	for _, vm := range vms {
		for _, ipc := range vm.IPCs {
			if ipc.ShmemID > maxID {
				maxID = ipc.ShmemID
			}
			if ipc.Size > sizes[ipc.ShmemID] {
				sizes[ipc.ShmemID] = ipc.Size
			}
		}
	}
	cfg := &Config{VMs: vms}
	for id := 0; id <= maxID; id++ {
		cfg.Shmems = append(cfg.Shmems, Shmem{Size: sizes[id]})
	}
	return cfg
}

// Artifact size estimates, in bytes, for sizing each renderer's
// strings.Builder once: an artifact's fixed text plus one block per
// repeated entry, each measured with every number at its widest (16
// hex digits, a 64-bit binary mask, 20 decimal digits). Names are
// added at their length, so only a name that %q must escape can
// outgrow an estimate.
const (
	platformFixedBytes   = 290 // Listing 3 with the console line
	platformRegionBytes  = 64  // one .regions entry
	platformClusterBytes = 22  // one .core_num element
	configFixedBytes     = 110 // Listing 6 around the vmlist
	configVMBytes        = 580 // one vmlist entry with its .devs and .ipcs headers
	configEntryBytes     = 104 // one region, device or IPC line
	configShmemBytes     = 110 // one .shmemlist entry, or its header
	jailhouseFixedBytes  = 540 // a cell or root config around mem_regions
	jailhouseRegionBytes = 232 // one mem_regions block
)

// RenderPlatformC renders the platform description in the format of the
// paper's Listing 3.
func (p *Platform) RenderPlatformC() string {
	var b strings.Builder
	b.Grow(p.platformCBytes())
	b.WriteString("#include <platform.h>\n\n")
	b.WriteString("struct platform_desc platform = {\n")
	fmt.Fprintf(&b, "  .cpu_num = %d,\n", p.CPUNum)
	fmt.Fprintf(&b, "  .region_num = %d,\n", len(p.Regions))
	b.WriteString("  .regions =  (struct mem_region[]) {\n")
	for _, r := range p.Regions {
		fmt.Fprintf(&b, "    { .base = 0x%x, .size = 0x%x },\n", r.Base, r.Size)
	}
	b.WriteString("  },\n\n")
	if p.ConsoleBase != 0 {
		fmt.Fprintf(&b, "  .console = { .base = 0x%x },\n\n", p.ConsoleBase)
	}
	b.WriteString("  .arch = {\n")
	b.WriteString("    .clusters =  {\n")
	coreNums := make([]string, len(p.Clusters))
	for i, c := range p.Clusters {
		coreNums[i] = fmt.Sprintf("%d", c.CoreNum)
	}
	fmt.Fprintf(&b, "      .num = %d, .core_num = (uint8_t[]) {%s}\n",
		len(p.Clusters), strings.Join(coreNums, ", "))
	b.WriteString("    },\n")
	b.WriteString("  }\n")
	b.WriteString("};\n")
	return b.String()
}

// RenderConfigC renders the VM-list configuration in the format of the
// paper's Listing 6.
func (c *Config) RenderConfigC() string {
	var b strings.Builder
	b.Grow(c.configCBytes())
	b.WriteString("#include <config.h>\n\n")
	for _, vm := range c.VMs {
		fmt.Fprintf(&b, "VM_IMAGE(%s, %simage.bin);\n", vm.Name, vm.Name)
	}
	b.WriteString("\nstruct config config = {\n")
	b.WriteString("  CONFIG_HEADER\n")
	fmt.Fprintf(&b, "  .vmlist_size = %d,\n", len(c.VMs))
	b.WriteString("  .vmlist = {\n")
	for _, vm := range c.VMs {
		b.WriteString("    {\n")
		b.WriteString("      .image = {\n")
		fmt.Fprintf(&b, "        .base_addr = 0x%x,\n", vm.ImageBase)
		fmt.Fprintf(&b, "        .load_addr = VM_IMAGE_OFFSET(%s),\n", vm.Name)
		fmt.Fprintf(&b, "        .size = VM_IMAGE_SIZE(%s)\n", vm.Name)
		b.WriteString("      },\n")
		fmt.Fprintf(&b, "      .entry = 0x%x,\n", vm.Entry)
		fmt.Fprintf(&b, "      .cpu_affinity = 0b%b,\n", vm.CPUAffinity)
		fmt.Fprintf(&b, "      .platform = { .cpu_num = %d, .dev_num = %d,\n", vm.CPUNum, len(vm.Devices))
		fmt.Fprintf(&b, "        .region_num = %d,\n", len(vm.Regions))
		b.WriteString("        .regions =  (struct mem_region[]) {\n")
		for _, r := range vm.Regions {
			fmt.Fprintf(&b, "          { .base = 0x%x, .size = 0x%x },\n", r.Base, r.Size)
		}
		b.WriteString("        },\n")
		if len(vm.Devices) > 0 {
			b.WriteString("        .devs =  (struct dev_region[]) {\n")
			for _, d := range vm.Devices {
				fmt.Fprintf(&b, "          { .pa = 0x%x, .va = 0x%x, .size = 0x%x },\n",
					d.PA, d.VA, d.Size)
			}
			b.WriteString("        },\n")
		}
		if len(vm.IPCs) > 0 {
			fmt.Fprintf(&b, "        .ipc_num = %d,\n", len(vm.IPCs))
			b.WriteString("        .ipcs =  (struct ipc[]) {\n")
			for _, ipc := range vm.IPCs {
				fmt.Fprintf(&b, "          { .base = 0x%x, .size = 0x%x, .shmem_id = %d },\n",
					ipc.Base, ipc.Size, ipc.ShmemID)
			}
			b.WriteString("        },\n")
		}
		b.WriteString("      },\n")
		b.WriteString("    },\n")
	}
	b.WriteString("  },\n")
	if len(c.Shmems) > 0 {
		fmt.Fprintf(&b, "  .shmemlist_size = %d,\n", len(c.Shmems))
		b.WriteString("  .shmemlist = (struct shmem[]) {\n")
		for i, s := range c.Shmems {
			fmt.Fprintf(&b, "    [%d] = { .size = 0x%08x },\n", i, s.Size)
		}
		b.WriteString("  },\n")
	}
	b.WriteString("};\n")
	return b.String()
}

// platformCBytes estimates RenderPlatformC's output length.
func (p *Platform) platformCBytes() int {
	return platformFixedBytes + platformRegionBytes*len(p.Regions) +
		platformClusterBytes*len(p.Clusters)
}

// configCBytes estimates RenderConfigC's output length: each VM's name
// appears four times, and the shmem list adds a header.
func (c *Config) configCBytes() int {
	n := configFixedBytes + configShmemBytes*(len(c.Shmems)+1)
	for _, vm := range c.VMs {
		n += configVMBytes + 4*len(vm.Name) +
			configEntryBytes*(len(vm.Regions)+len(vm.Devices)+len(vm.IPCs))
	}
	return n
}

// QEMUArgs synthesizes a qemu-system invocation matching the platform,
// covering the paper's claim that the generated configurations can also
// drive QEMU-based virtual platforms (Section V).
func QEMUArgs(p *Platform, arch string) []string {
	var total uint64
	for _, r := range p.Regions {
		total += r.Size
	}
	machine := "virt"
	bin := "qemu-system-aarch64"
	cpu := "cortex-a53"
	if arch == "rv64" {
		bin = "qemu-system-riscv64"
		cpu = "rv64"
	}
	return []string{
		bin,
		"-machine", machine,
		"-cpu", cpu,
		"-smp", fmt.Sprintf("%d", p.CPUNum),
		"-m", fmt.Sprintf("%dM", total/(1024*1024)),
		"-nographic",
		"-serial", "mon:stdio",
	}
}
