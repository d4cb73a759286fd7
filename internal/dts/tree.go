// Package dts implements a DeviceTree source (DTS) toolchain: a tree
// model for device nodes and properties, a lexer and recursive-descent
// parser for the .dts/.dtsi format (including /include/ resolution,
// labels, unit addresses, cell arrays with integer expressions,
// strings, byte arrays and phandle references), dtc-style merge
// semantics for repeated definitions, and a canonical printer.
//
// This is the substrate the llhsc paper assumes from the dtc compiler
// (DESIGN.md §2): delta modules (internal/delta) edit these trees, and
// the checkers (internal/constraints) interpret them.
package dts

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Origin records where a node or property came from: a source position
// and, when produced by the product line, the delta module responsible.
// llhsc's blame reporting (tracing a violation back to the delta that
// caused it, Section III-B of the paper) is built on this.
type Origin struct {
	File  string
	Line  int
	Delta string // name of the delta module that added/last modified it
}

func (o Origin) String() string {
	switch {
	case o.Delta != "" && o.File != "":
		return fmt.Sprintf("%s:%d (delta %s)", o.File, o.Line, o.Delta)
	case o.Delta != "":
		return fmt.Sprintf("delta %s", o.Delta)
	case o.File != "":
		return fmt.Sprintf("%s:%d", o.File, o.Line)
	default:
		return "<unknown>"
	}
}

// MemReserve is a /memreserve/ entry.
type MemReserve struct {
	Address uint64
	Size    uint64
}

// OverlayFragment is one unresolved extension block of a /plugin/
// overlay: a `&label { ... };` or `&{/path} { ... };` whose target is
// expected to exist in the base tree the overlay is applied to, not in
// the overlay itself. The fragment's node carries the properties and
// children to merge into the target. Fragments are kept in document
// order; ApplyOverlay and delta.FromOverlay both consume them.
type OverlayFragment struct {
	Ref    string // label name, or absolute path for &{/path} targets
	IsPath bool
	Node   *Node
}

// Clone returns a deep copy of the fragment.
func (f OverlayFragment) Clone() OverlayFragment {
	return OverlayFragment{Ref: f.Ref, IsPath: f.IsPath, Node: f.Node.Clone()}
}

// Tree is a parsed DeviceTree.
type Tree struct {
	Root        *Node
	MemReserves []MemReserve

	// Plugin is set by the /plugin/ directive: the source is an overlay
	// meant to be applied onto a base tree. In plugin mode, extension
	// blocks whose label does not resolve locally become Fragments
	// instead of parse errors.
	Plugin    bool
	Fragments []OverlayFragment
}

// NewTree returns a tree with an empty root node.
func NewTree() *Tree {
	return &Tree{Root: &Node{Name: "/"}}
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Root:        t.Root.Clone(),
		MemReserves: append([]MemReserve(nil), t.MemReserves...),
		Plugin:      t.Plugin,
	}
	if len(t.Fragments) > 0 {
		c.Fragments = make([]OverlayFragment, len(t.Fragments))
		for i, f := range t.Fragments {
			c.Fragments[i] = f.Clone()
		}
	}
	return c
}

// Derive returns a tree that reads as t and can be edited without
// writing t: it shares t's nodes and Fragments and copies MemReserves.
// Make a node's path writable with Own before editing the node.
func (t *Tree) Derive() *Tree {
	return &Tree{Root: t.Root, Plugin: t.Plugin, Fragments: t.Fragments,
		MemReserves: append([]MemReserve(nil), t.MemReserves...)}
}

// Own makes the nodes on path writable in t, a tree from Derive, and
// returns the last one; path runs down through children from t.Root or
// from a node t owns. Each node t does not own yet is replaced, in path
// and in its parent, by a ShallowClone t owns (ownership is one compare).
func (t *Tree) Own(path []*Node) *Node {
	for i, n := range path {
		if n.owner == t {
			continue
		}
		c := n.ShallowClone()
		c.owner = t
		if i == 0 {
			t.Root = c
		} else {
			siblings := path[i-1].Children
			siblings[slices.Index(siblings, n)] = c
		}
		path[i] = c
	}
	return path[len(path)-1]
}

// Lookup resolves an absolute path like "/memory@40000000" or "/" and
// returns the node, or nil if absent.
func (t *Tree) Lookup(path string) *Node {
	if path == "/" || path == "" {
		return t.Root
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	n := t.Root
	for _, p := range parts {
		n = n.Child(p)
		if n == nil {
			return nil
		}
	}
	return n
}

// LookupLabel finds the node carrying the given label, or nil.
func (t *Tree) LookupLabel(label string) *Node {
	var found *Node
	t.Root.Walk(func(path string, n *Node) bool {
		if n.Label == label {
			found = n
			return false
		}
		return true
	})
	return found
}

// Node is a device node: a named collection of properties and child
// nodes. Name includes the unit address suffix when present
// ("memory@40000000").
type Node struct {
	Name       string
	Label      string
	Properties []*Property
	Children   []*Node
	Origin     Origin

	// Deletion markers recorded by /delete-property/ and /delete-node/
	// directives; Merge replays them against the target node so that a
	// later definition block can delete entries from an earlier one,
	// matching dtc semantics.
	delProps []string
	delNodes []string

	owner *Tree // the tree Own copied this node for, else nil
}

// BaseName returns the node name without its unit address.
func (n *Node) BaseName() string {
	base, _ := SplitName(n.Name)
	return base
}

// UnitAddress returns the unit address part of the name ("" if none).
func (n *Node) UnitAddress() string {
	_, unit := SplitName(n.Name)
	return unit
}

// SplitName splits a node name into base name and unit address.
func SplitName(name string) (base, unit string) {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	c := &Node{
		Name: n.Name, Label: n.Label, Origin: n.Origin,
		delProps: append([]string(nil), n.delProps...),
		delNodes: append([]string(nil), n.delNodes...),
	}
	c.Properties = make([]*Property, len(n.Properties))
	for i, p := range n.Properties {
		c.Properties[i] = p.Clone()
	}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return c
}

// ShallowClone returns a copy of n with its own Properties and Children
// slices but the same *Property and *Node elements, so the copy may add,
// replace or remove entries but not edit a shared one in place.
func (n *Node) ShallowClone() *Node {
	return &Node{
		Name: n.Name, Label: n.Label, Origin: n.Origin,
		Properties: slices.Clone(n.Properties),
		Children:   slices.Clone(n.Children),
		delProps:   slices.Clip(n.delProps),
		delNodes:   slices.Clip(n.delNodes),
	}
}

// Child returns the direct child with the given (full) name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns every direct child whose base name matches.
func (n *Node) ChildrenNamed(base string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.BaseName() == base {
			out = append(out, c)
		}
	}
	return out
}

// EnsureChild returns the child with the given name, creating it if
// necessary.
func (n *Node) EnsureChild(name string) *Node {
	if c := n.Child(name); c != nil {
		return c
	}
	c := &Node{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// RemoveChild deletes the direct child with the given name; it reports
// whether a child was removed.
func (n *Node) RemoveChild(name string) bool {
	for i, c := range n.Children {
		if c.Name == name {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// Property returns the property with the given name, or nil.
func (n *Node) Property(name string) *Property {
	for _, p := range n.Properties {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// SetProperty adds or replaces a property, preserving order for
// replacements.
func (n *Node) SetProperty(p *Property) {
	for i, old := range n.Properties {
		if old.Name == p.Name {
			n.Properties[i] = p
			return
		}
	}
	n.Properties = append(n.Properties, p)
}

// RemoveProperty deletes the named property; it reports whether a
// property was removed.
func (n *Node) RemoveProperty(name string) bool {
	for i, p := range n.Properties {
		if p.Name == name {
			n.Properties = append(n.Properties[:i], n.Properties[i+1:]...)
			return true
		}
	}
	return false
}

// DeletedProperties returns the /delete-property/ markers recorded on
// the node, in declaration order. Merge replays these against its
// target; consumers that reimplement merge semantics over a different
// tree representation (the lifted tree in internal/delta) need to see
// them too.
func (n *Node) DeletedProperties() []string {
	return append([]string(nil), n.delProps...)
}

// DeletedNodes returns the /delete-node/ markers recorded on the node,
// in declaration order.
func (n *Node) DeletedNodes() []string {
	return append([]string(nil), n.delNodes...)
}

// Walk visits the subtree rooted at n in depth-first order, passing
// each node's path (absolute when n is the root node). Returning false
// from fn stops the walk.
func (n *Node) Walk(fn func(path string, node *Node) bool) {
	var rec func(path string, node *Node) bool
	rec = func(path string, node *Node) bool {
		if !fn(path, node) {
			return false
		}
		prefix := path
		if prefix == "/" {
			prefix = ""
		}
		for _, c := range node.Children {
			if !rec(prefix+"/"+c.Name, c) {
				return false
			}
		}
		return true
	}
	start := "/"
	if n.Name != "/" {
		start = "/" + n.Name
	}
	rec(start, n)
}

// Merge merges other into n with dtc semantics: properties with the
// same name are overwritten, children with the same name are merged
// recursively, and new properties/children are appended. The label is
// taken from other when it has one.
func (n *Node) Merge(other *Node) { n.merge(other, nil) }

// MergeAt merges other into the last node of path as Merge does, in a
// tree from Derive: it owns path first (Own), and each existing child
// other merges into, so only the nodes other reaches are copied. The
// tree takes other's properties and new children as they are, not
// copies, so other must not be written afterwards; a later edit under
// one of them owns it first, like any node the tree shares.
func (t *Tree) MergeAt(path []*Node, other *Node) {
	t.Own(path).merge(other, t)
}

// merge merges other into n. With an owner (MergeAt), n and every node
// merge descends into are owned by it, and other's properties and new
// children are shared; without one (Merge), they are copied.
func (n *Node) merge(other *Node, owner *Tree) {
	if other.Label != "" {
		n.Label = other.Label
	}
	for _, name := range other.delProps {
		n.RemoveProperty(name)
	}
	for _, name := range other.delNodes {
		n.RemoveChild(name)
	}
	for _, p := range other.Properties {
		if owner == nil {
			p = p.Clone()
		}
		n.SetProperty(p)
	}
	for _, c := range other.Children {
		if mine := n.Child(c.Name); mine != nil {
			if owner != nil {
				mine = owner.Own([]*Node{n, mine})
			}
			mine.merge(c, owner)
		} else {
			if owner == nil {
				c = c.Clone()
			}
			n.Children = append(n.Children, c)
		}
	}
	if other.Origin.Delta != "" {
		n.Origin.Delta = other.Origin.Delta
	}
}

// AddressCells returns the node's #address-cells value, defaulting to 2
// per the DeviceTree specification when absent.
func (n *Node) AddressCells() int {
	if v, ok := n.CellValue("#address-cells"); ok {
		return int(v)
	}
	return 2
}

// SizeCells returns the node's #size-cells value, defaulting to 1 per
// the DeviceTree specification when absent.
func (n *Node) SizeCells() int {
	if v, ok := n.CellValue("#size-cells"); ok {
		return int(v)
	}
	return 1
}

// CellValue returns the first u32 cell of the named property.
func (n *Node) CellValue(name string) (uint32, bool) {
	p := n.Property(name)
	if p == nil {
		return 0, false
	}
	cells := p.Value.Cells()
	if len(cells) == 0 {
		return 0, false
	}
	return cells[0].Val, true
}

// StringValue returns the first string of the named property.
func (n *Node) StringValue(name string) (string, bool) {
	p := n.Property(name)
	if p == nil {
		return "", false
	}
	return p.Value.FirstString()
}

// Compatible returns the values of the node's compatible property.
func (n *Node) Compatible() []string {
	p := n.Property("compatible")
	if p == nil {
		return nil
	}
	return p.Value.Strings()
}

// FirstCompatible returns the first string of the node's compatible
// property. Unlike Compatible it does not allocate.
func (n *Node) FirstCompatible() (string, bool) {
	p := n.Property("compatible")
	if p == nil {
		return "", false
	}
	return p.Value.FirstString()
}

// AnyCompatible reports whether match holds for some string of the
// node's compatible property. Unlike Compatible it does not allocate.
func (n *Node) AnyCompatible(match func(string) bool) bool {
	p := n.Property("compatible")
	return p != nil && p.Value.AnyString(match)
}

// SortedPropertyNames returns the node's property names sorted
// lexicographically (useful for deterministic reporting).
func (n *Node) SortedPropertyNames() []string {
	names := make([]string, len(n.Properties))
	for i, p := range n.Properties {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Property is a named value attached to a node. A property with an
// empty value (no chunks) is a Boolean marker property.
type Property struct {
	Name   string
	Value  Value
	Origin Origin
}

// Clone returns a deep copy of the property.
func (p *Property) Clone() *Property {
	return &Property{Name: p.Name, Value: p.Value.Clone(), Origin: p.Origin}
}

// ChunkKind discriminates the syntactic forms a property value is
// assembled from.
type ChunkKind int

// Property value chunk kinds.
const (
	ChunkCells  ChunkKind = iota + 1 // <0x1 0x2 &label>
	ChunkString                      // "text"
	ChunkBytes                       // [de ad be ef]
	ChunkRef                         // &label (outside angle brackets: a path string)
)

// Cell is one element of a cell array; Ref is set for phandle
// references (&label) whose numeric value is resolved late. Cells are
// 32 bits wide unless the enclosing chunk carries a /bits/ override;
// 64-bit elements live in Val64 (Val holds the truncated low word so
// 32-bit consumers keep working).
type Cell struct {
	Val   uint32
	Val64 uint64
	Ref   string
}

// Chunk is one comma-separated component of a property value. Bits is
// the element width of a cells chunk set by a /bits/ prefix (8, 16, 32
// or 64); 0 means the default 32-bit width with no explicit prefix.
type Chunk struct {
	Kind     ChunkKind
	Bits     int
	CellList []Cell
	Str      string
	Bytes    []byte
	Ref      string
}

// Value is a property value: a sequence of chunks.
type Value struct {
	Chunks []Chunk
}

// Clone returns a deep copy of the value.
func (v Value) Clone() Value {
	out := Value{Chunks: make([]Chunk, len(v.Chunks))}
	for i, c := range v.Chunks {
		nc := c
		nc.CellList = append([]Cell(nil), c.CellList...)
		nc.Bytes = append([]byte(nil), c.Bytes...)
		out.Chunks[i] = nc
	}
	return out
}

// IsEmpty reports whether the value is a Boolean marker (no chunks).
func (v Value) IsEmpty() bool { return len(v.Chunks) == 0 }

// Cells returns the concatenation of all 32-bit cell chunks. Chunks
// with a /bits/ width other than 32 are excluded: their elements are
// not u32 cells, and consumers of Cells (reg/interrupt interpretation,
// the semantic checkers) assume the standard cell size. The result is
// read-only: for a value with one such chunk it is that chunk's own
// cell list, capped so an append copies instead of writing into it.
func (v Value) Cells() []Cell {
	var out []Cell
	for _, c := range v.Chunks {
		if !c.isU32Cells() {
			continue
		}
		if len(out) == 0 {
			out = c.CellList[:len(c.CellList):len(c.CellList)]
			continue
		}
		out = append(out, c.CellList...)
	}
	return out
}

// U32s returns all cell values of Cells as uint32s, in a new slice.
func (v Value) U32s() []uint32 {
	n := 0
	for _, c := range v.Chunks {
		if c.isU32Cells() {
			n += len(c.CellList)
		}
	}
	out := make([]uint32, 0, n)
	for _, c := range v.Chunks {
		if c.isU32Cells() {
			for _, cell := range c.CellList {
				out = append(out, cell.Val)
			}
		}
	}
	return out
}

// isU32Cells reports whether the chunk holds standard 32-bit cells.
func (c *Chunk) isU32Cells() bool {
	return c.Kind == ChunkCells && (c.Bits == 0 || c.Bits == 32)
}

// Strings returns all string chunks.
func (v Value) Strings() []string {
	var out []string
	for _, c := range v.Chunks {
		if c.Kind == ChunkString {
			out = append(out, c.Str)
		}
	}
	return out
}

// FirstString returns the first string chunk. Unlike Strings it does
// not allocate.
func (v Value) FirstString() (string, bool) {
	for i := range v.Chunks {
		if c := &v.Chunks[i]; c.Kind == ChunkString {
			return c.Str, true
		}
	}
	return "", false
}

// AnyString reports whether match holds for some string chunk, tried
// in order. Unlike Strings it does not allocate.
func (v Value) AnyString(match func(string) bool) bool {
	for i := range v.Chunks {
		if c := &v.Chunks[i]; c.Kind == ChunkString && match(c.Str) {
			return true
		}
	}
	return false
}

// Bytes returns the concatenation of all byte chunks.
func (v Value) Bytes() []byte {
	var out []byte
	for _, c := range v.Chunks {
		if c.Kind == ChunkBytes {
			out = append(out, c.Bytes...)
		}
	}
	return out
}

// CellsValue builds a value holding a single cells chunk.
func CellsValue(vals ...uint32) Value {
	cells := make([]Cell, len(vals))
	for i, v := range vals {
		cells[i] = Cell{Val: v}
	}
	return Value{Chunks: []Chunk{{Kind: ChunkCells, CellList: cells}}}
}

// Cells64Value builds a cells chunk from 64-bit values, splitting each
// into two cells (high word first), as the DT format requires when
// #address-cells is 2.
func Cells64Value(vals ...uint64) Value {
	cells := make([]Cell, 0, 2*len(vals))
	for _, v := range vals {
		cells = append(cells, Cell{Val: uint32(v >> 32)}, Cell{Val: uint32(v)})
	}
	return Value{Chunks: []Chunk{{Kind: ChunkCells, CellList: cells}}}
}

// StringValueOf builds a value holding string chunks.
func StringValueOf(ss ...string) Value {
	chunks := make([]Chunk, len(ss))
	for i, s := range ss {
		chunks[i] = Chunk{Kind: ChunkString, Str: s}
	}
	return Value{Chunks: chunks}
}

// BytesValue builds a value holding a single byte chunk.
func BytesValue(b []byte) Value {
	return Value{Chunks: []Chunk{{Kind: ChunkBytes, Bytes: append([]byte(nil), b...)}}}
}

// Aliases returns the alias map defined by the tree's /aliases node:
// alias name → absolute node path. Aliases whose value is not a single
// path string are skipped.
func (t *Tree) Aliases() map[string]string {
	out := make(map[string]string)
	aliases := t.Lookup("/aliases")
	if aliases == nil {
		return out
	}
	for _, p := range aliases.Properties {
		if ss := p.Value.Strings(); len(ss) == 1 && strings.HasPrefix(ss[0], "/") {
			out[p.Name] = ss[0]
			continue
		}
		// an alias may also be written as a reference (&label)
		for _, ch := range p.Value.Chunks {
			if ch.Kind == ChunkRef {
				if n := t.LookupLabel(ch.Ref); n != nil {
					if path := t.PathOf(n); path != "" {
						out[p.Name] = path
					}
				}
			}
		}
	}
	return out
}

// LookupAlias resolves an alias (from /aliases) to its node, or nil.
func (t *Tree) LookupAlias(name string) *Node {
	path, ok := t.Aliases()[name]
	if !ok {
		return nil
	}
	return t.Lookup(path)
}

// PathOf returns the absolute path of a node in the tree ("" if the
// node is not part of this tree).
func (t *Tree) PathOf(target *Node) string {
	var found string
	t.Root.Walk(func(path string, n *Node) bool {
		if n == target {
			found = path
			return false
		}
		return true
	})
	return found
}
