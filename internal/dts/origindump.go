package dts

import "strconv"

// OriginDump renders the tree's blame metadata — the Origin of every
// node and property that carries one — in deterministic pre-order.
// Print() deliberately omits origins (they are provenance, not DTS
// syntax), so two trees can print byte-identically yet trace their
// fragments to different delta modules or source positions.
// A consumer that keys check results on the canonical text must
// therefore fold this dump into its key too, or a cached violation
// would blame another product's deltas.
//
// Every variable-length field is length-prefixed, so distinct origin
// sets never produce the same dump.
func (t *Tree) OriginDump() string {
	var d originDumper
	d.walk(t.Root)
	// Overlay fragments live outside the root; their provenance must be
	// dumped too, or two overlays differing only in fragment blame would
	// dump alike.
	for i, f := range t.Fragments {
		d.buf = strconv.AppendInt(append(d.buf, "frag"...), int64(i), 10)
		d.buf = append(appendField(append(d.buf, ':'), f.Ref), '\n')
		d.walk(f.Node)
	}
	return string(d.buf)
}

// originDumper builds an origin dump in one walk; path is the current
// node's path, grown and cut back as the walk descends and returns.
type originDumper struct {
	buf, path []byte
}

// walk dumps the subtree of a root or fragment node, whose path is "/"
// when it is named "/" and "/<name>" otherwise.
func (d *originDumper) walk(n *Node) {
	d.path = append(d.path[:0], '/')
	if n.Name != "/" {
		d.path = append(d.path, n.Name...)
	}
	d.node(n)
}

// node dumps n's subtree. A child's path is n's plus "/<name>", where a
// path of "/" contributes no prefix.
func (d *originDumper) node(n *Node) {
	d.record("node", "", n.Origin)
	for _, p := range n.Properties {
		d.record("prop", p.Name, p.Origin)
	}
	keep, prefix := len(d.path), len(d.path)
	if string(d.path) == "/" {
		prefix = 0
	}
	for _, c := range n.Children {
		d.path = append(append(d.path[:prefix], '/'), c.Name...)
		d.node(c)
	}
	d.path = d.path[:keep]
}

// record appends "<len>:<kind><len>:<path><len>:<file><len>:<delta>@<line>\n"
// for a set origin; a property's path is its node's plus "#<name>".
func (d *originDumper) record(kind, prop string, o Origin) {
	if o == (Origin{}) {
		return
	}
	b, n := appendField(d.buf, kind), len(d.path)
	if kind == "prop" {
		n += 1 + len(prop)
	}
	b = append(append(strconv.AppendInt(b, int64(n), 10), ':'), d.path...)
	if kind == "prop" {
		b = append(append(b, '#'), prop...)
	}
	b = append(appendField(appendField(b, o.File), o.Delta), '@')
	d.buf = append(strconv.AppendInt(b, int64(o.Line), 10), '\n')
}

// appendField appends "<len>:<s>".
func appendField(b []byte, s string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(s)), 10), ':'), s...)
}
