// Package addr interprets DeviceTree reg properties as address regions.
//
// The meaning of a reg property is context-dependent: the parent node's
// #address-cells and #size-cells decide how many 32-bit cells form each
// address and size (the "dynamic semantics" the paper motivates in
// Section II-A). This package performs that interpretation, models
// regions as (base, size) pairs, and provides the overlap predicates
// that the semantic checker (internal/constraints) turns into
// bit-vector constraints.
package addr

import (
	"errors"
	"fmt"
	"strings"

	"llhsc/internal/dts"
)

// Errors produced while interpreting reg properties.
var (
	// ErrArity means the cell count is not a multiple of
	// #address-cells + #size-cells. Note that dt-schema accepts any
	// multiple (the paper exploits this in Section IV-C); this package
	// reports the stricter condition so callers can decide.
	ErrArity = errors.New("addr: reg cell count not a multiple of #address-cells + #size-cells")
	// ErrTooWide means an address or size spans more than 64 bits.
	ErrTooWide = errors.New("addr: addresses wider than 64 bits are unsupported")
	// ErrOverflow means base+size overflows the address space.
	ErrOverflow = errors.New("addr: region end overflows 64-bit address space")
)

// Entry is one (address, size) pair decoded from a reg property.
type Entry struct {
	Address uint64
	Size    uint64
}

// ParseReg decodes a reg cell array under the given cell configuration.
// addrCells and sizeCells must be non-negative; sizeCells may be 0, in
// which case entries have Size 0 (identifier-style reg, e.g. CPU ids).
func ParseReg(cells []uint32, addrCells, sizeCells int) ([]Entry, error) {
	if addrCells < 1 {
		return nil, fmt.Errorf("addr: #address-cells %d out of range", addrCells)
	}
	if sizeCells < 0 {
		return nil, fmt.Errorf("addr: #size-cells %d out of range", sizeCells)
	}
	if addrCells > 2 || sizeCells > 2 {
		return nil, ErrTooWide
	}
	stride := addrCells + sizeCells
	if len(cells)%stride != 0 {
		return nil, fmt.Errorf("%w: %d cells, stride %d", ErrArity, len(cells), stride)
	}
	entries := make([]Entry, 0, len(cells)/stride)
	for i := 0; i < len(cells); i += stride {
		e := Entry{
			Address: combine(cells[i : i+addrCells]),
			Size:    combine(cells[i+addrCells : i+stride]),
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// combine folds 1 or 2 cells into a 64-bit value (first cell is most
// significant, per the DeviceTree specification).
func combine(cells []uint32) uint64 {
	var v uint64
	for _, c := range cells {
		v = v<<32 | uint64(c)
	}
	return v
}

// Kind classifies a region by the role of its node.
type Kind int

// Region kinds.
const (
	KindMemory  Kind = iota + 1 // device_type = "memory"
	KindDevice                  // any other addressable node
	KindVirtual                 // virtual device (IPC window onto shared RAM)
)

func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindDevice:
		return "device"
	case KindVirtual:
		return "virtual"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindOf classifies a node from its device_type and compatible strings.
// device_type "memory" makes a memory bank. A compatible of "veth" or
// "virtual*" makes a virtual device, whose address window is an IPC
// overlay onto shared memory rather than an exclusively decoded physical
// range: the running example's veth nodes, and the paper's own Listing
// 6, which places the veth IPC base inside a guest memory region.
// Anything else is a device.
func KindOf(deviceType string, compatible []string) Kind {
	if deviceType == "memory" {
		return KindMemory
	}
	for _, c := range compatible {
		if c == "veth" || strings.HasPrefix(c, "virtual") {
			return KindVirtual
		}
	}
	return KindDevice
}

// Region is an addressable range attributed to a tree node.
type Region struct {
	Base   uint64
	Size   uint64
	Path   string // node path, e.g. /memory@40000000
	Kind   Kind
	Index  int // bank index within the node's reg property
	Origin dts.Origin
}

// End returns the exclusive end address. ok is false when base+size
// overflows 64 bits.
func (r Region) End() (end uint64, ok bool) {
	end = r.Base + r.Size
	return end, end >= r.Base || r.Size == 0
}

// Contains reports whether address a falls inside the region.
func (r Region) Contains(a uint64) bool {
	return a >= r.Base && a-r.Base < r.Size
}

// Overlaps reports whether two regions share at least one address.
// Zero-sized regions overlap nothing.
func (r Region) Overlaps(o Region) bool {
	if r.Size == 0 || o.Size == 0 {
		return false
	}
	return r.Base < o.Base+o.Size && o.Base < r.Base+r.Size
}

func (r Region) String() string {
	return fmt.Sprintf("%s[%d] 0x%x+0x%x", r.Path, r.Index, r.Base, r.Size)
}

// CollectOption configures CollectRegions.
type CollectOption func(*collector)

// WithDeviceFilter restricts device-region collection to nodes for
// which keep returns true (memory regions are always collected).
func WithDeviceFilter(keep func(n *dts.Node) bool) CollectOption {
	return func(c *collector) { c.keep = keep }
}

type collector struct {
	keep func(n *dts.Node) bool
}

// RangeEntry is one (child base, parent base, size) translation entry
// of a ranges property.
type RangeEntry struct {
	ChildBase  uint64
	ParentBase uint64
	Size       uint64
}

// ParseRanges decodes a ranges property: tuples of child address
// (childAddrCells), parent address (parentAddrCells) and size
// (childSizeCells).
func ParseRanges(cells []uint32, childAddrCells, parentAddrCells, childSizeCells int) ([]RangeEntry, error) {
	for _, c := range []int{childAddrCells, parentAddrCells} {
		if c < 1 || c > 2 {
			return nil, ErrTooWide
		}
	}
	if childSizeCells < 1 || childSizeCells > 2 {
		return nil, ErrTooWide
	}
	stride := childAddrCells + parentAddrCells + childSizeCells
	if len(cells)%stride != 0 {
		return nil, fmt.Errorf("%w: %d cells, stride %d", ErrArity, len(cells), stride)
	}
	var out []RangeEntry
	for i := 0; i < len(cells); i += stride {
		out = append(out, RangeEntry{
			ChildBase:  combine(cells[i : i+childAddrCells]),
			ParentBase: combine(cells[i+childAddrCells : i+childAddrCells+parentAddrCells]),
			Size:       combine(cells[i+childAddrCells+parentAddrCells : i+stride]),
		})
	}
	return out, nil
}

// Translate maps a child-bus address range through the ranges entries.
// ok is false when the child range is not covered by any entry.
func Translate(ranges []RangeEntry, childAddr, size uint64) (parentAddr uint64, ok bool) {
	for _, r := range ranges {
		if childAddr >= r.ChildBase && childAddr-r.ChildBase < r.Size &&
			childAddr-r.ChildBase+size <= r.Size {
			return r.ParentBase + (childAddr - r.ChildBase), true
		}
	}
	return 0, false
}

// Translator maps a child-bus range (address, size) into the root
// (CPU-visible) address space; ok is false when no ranges entry covers
// the range.
type Translator func(address, size uint64) (root uint64, ok bool)

// Identity is the root bus's Translator.
func Identity(address, _ uint64) (uint64, bool) { return address, true }

// Through returns the Translator for the children of the node at path,
// given the node's ranges value and the cell sizes that decode it. A
// missing ranges property (the common practice for simple-bus
// containers) and an empty "ranges;" are the identity mapping. A
// malformed ranges value leaves the translation unchanged and is
// reported with the node's path.
func (tr Translator) Through(path string, ranges *dts.Value, childAddrCells, parentAddrCells, childSizeCells int) (Translator, error) {
	if ranges == nil || ranges.IsEmpty() {
		return tr, nil
	}
	entries, err := ParseRanges(ranges.U32s(), childAddrCells, parentAddrCells, childSizeCells)
	if err != nil {
		return tr, fmt.Errorf("%s ranges: %w", path, err)
	}
	return func(a, s uint64) (uint64, bool) {
		mid, ok := Translate(entries, a, s)
		if !ok {
			return 0, false
		}
		return tr(mid, s)
	}, nil
}

// DecodeReg decodes the reg cells of the node at path under its
// parent's #address-cells/#size-cells, translates every entry into the
// root address space and checks it for overflow, appending the regions
// to dst in entry order. Problems come back in the order they occur,
// each naming the node: an arity error yields no region, an entry no
// ranges entry covers is dropped, and an overflowing region is kept.
// Both checking modes decode regions through this one step.
func DecodeReg(dst []Region, path string, cells []uint32, addrCells, sizeCells int, tr Translator, kind Kind, origin dts.Origin) ([]Region, []error) {
	entries, err := ParseReg(cells, addrCells, sizeCells)
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", path, err))
	}
	for i, e := range entries {
		base, ok := tr(e.Address, e.Size)
		if !ok {
			errs = append(errs, fmt.Errorf("%s bank %d: address 0x%x not covered by parent ranges",
				path, i, e.Address))
			continue
		}
		r := Region{Base: base, Size: e.Size, Path: path, Kind: kind, Index: i, Origin: origin}
		if _, ok := r.End(); !ok {
			errs = append(errs, fmt.Errorf("%s bank %d: %w", path, i, ErrOverflow))
		}
		dst = append(dst, r)
	}
	return dst, errs
}

// CollectRegions walks the tree and decodes every addressable reg
// property into regions (DecodeReg). Nodes under a parent with
// #size-cells = 0 (such as CPUs, whose reg is an identifier) are
// skipped. Bus nodes with a ranges property have their children's
// addresses translated to the root address space (Translator.Through).
// The first decoding problem is returned, naming the offending node.
func CollectRegions(t *dts.Tree, opts ...CollectOption) ([]Region, error) {
	var c collector
	for _, o := range opts {
		o(&c)
	}
	var out []Region
	var firstErr error
	note := func(errs ...error) {
		if firstErr == nil && len(errs) > 0 {
			firstErr = errs[0]
		}
	}

	var walk func(parent *dts.Node, path string, tr Translator)
	walk = func(parent *dts.Node, path string, tr Translator) {
		ac, sc := parent.AddressCells(), parent.SizeCells()
		for _, n := range parent.Children {
			childPath := path + "/" + n.Name
			if reg := n.Property("reg"); reg != nil && sc > 0 {
				dt, _ := n.StringValue("device_type")
				kind := KindOf(dt, n.Compatible())
				if kind == KindMemory || c.keep == nil || c.keep(n) {
					var errs []error
					out, errs = DecodeReg(out, childPath, reg.Value.U32s(), ac, sc, tr, kind, reg.Origin)
					note(errs...)
				}
			}
			childTr := tr
			if p := n.Property("ranges"); p != nil {
				var err error
				if childTr, err = tr.Through(childPath, &p.Value, n.AddressCells(), ac, n.SizeCells()); err != nil {
					note(err)
				}
			}
			walk(n, childPath, childTr)
		}
	}
	walk(t.Root, "", Identity)
	return out, firstErr
}

// Overlapping returns every pair of distinct regions that overlap,
// excluding pairs of banks that belong to the same node.
func Overlapping(regions []Region) [][2]Region {
	var out [][2]Region
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].Path == regions[j].Path && regions[i].Kind == regions[j].Kind {
				// Banks of the same device may not overlap either, so
				// same-node pairs are still reported — unless they are
				// literally the same bank.
				if regions[i].Index == regions[j].Index {
					continue
				}
			}
			if regions[i].Overlaps(regions[j]) {
				out = append(out, [2]Region{regions[i], regions[j]})
			}
		}
	}
	return out
}

// BitWidth returns the natural bit width for addresses formed from the
// given #address-cells (32 bits per cell, capped at 64).
func BitWidth(addressCells int) int {
	w := addressCells * 32
	if w > 64 {
		w = 64
	}
	if w < 32 {
		w = 32
	}
	return w
}
