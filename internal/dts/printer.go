package dts

import (
	"strconv"
	"strings"
)

// Print renders the tree as canonical DTS text: /dts-v1/ header (plus
// /plugin/ for overlays), tab indentation, cells in hexadecimal,
// properties before children, then overlay fragments as `&label { }`
// extension blocks in document order.
func (t *Tree) Print() string {
	var b strings.Builder
	b.WriteString("/dts-v1/;\n")
	if t.Plugin {
		b.WriteString("/plugin/;\n")
	}
	b.WriteString("\n")
	for _, mr := range t.MemReserves {
		b.WriteString("/memreserve/ ")
		writeHex(&b, mr.Address)
		b.WriteByte(' ')
		writeHex(&b, mr.Size)
		b.WriteString(";\n")
	}
	if len(t.MemReserves) > 0 {
		b.WriteString("\n")
	}
	printNode(&b, t.Root, 0)
	for _, f := range t.Fragments {
		b.WriteString("\n")
		printRef(&b, f.Ref)
		b.WriteString(" {\n")
		printNodeInner(&b, f.Node, 0)
		b.WriteString("};\n")
	}
	return b.String()
}

func printNode(b *strings.Builder, n *Node, depth int) {
	writeTabs(b, depth)
	if n.Label != "" {
		b.WriteString(n.Label)
		b.WriteString(": ")
	}
	b.WriteString(n.Name)
	b.WriteString(" {\n")
	printNodeInner(b, n, depth)
	writeTabs(b, depth)
	b.WriteString("};\n")
}

// printNodeInner renders a node's properties and children without the
// surrounding header/footer, shared by printNode and the overlay
// fragment printer (whose header is a reference, not a name).
func printNodeInner(b *strings.Builder, n *Node, depth int) {
	for _, p := range n.Properties {
		writeTabs(b, depth+1)
		b.WriteString(p.Name)
		if !p.Value.IsEmpty() {
			b.WriteString(" = ")
			printValue(b, p.Value)
		}
		b.WriteString(";\n")
	}
	if len(n.Properties) > 0 && len(n.Children) > 0 {
		b.WriteString("\n")
	}
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString("\n")
		}
		printNode(b, c, depth+1)
	}
}

// FormatValue renders a property value in the canonical DTS syntax the
// printer uses, for consumers that need a deterministic textual form of
// a value outside a full tree print (e.g. the lifted-tree dump that
// feeds the check cache key).
func FormatValue(v Value) string {
	var b strings.Builder
	printValue(&b, v)
	return b.String()
}

func printValue(b *strings.Builder, v Value) {
	for i, c := range v.Chunks {
		if i > 0 {
			b.WriteString(", ")
		}
		switch c.Kind {
		case ChunkCells:
			if c.Bits != 0 {
				b.WriteString("/bits/ ")
				b.WriteString(strconv.Itoa(c.Bits))
				b.WriteByte(' ')
			}
			b.WriteString("<")
			for j, cell := range c.CellList {
				if j > 0 {
					b.WriteString(" ")
				}
				switch {
				case cell.Ref != "":
					printRef(b, cell.Ref)
				case c.Bits == 64:
					writeHex(b, cell.Val64)
				default:
					writeHex(b, uint64(cell.Val))
				}
			}
			b.WriteString(">")
		case ChunkString:
			writeQuotedDTS(b, c.Str)
		case ChunkBytes:
			b.WriteString("[")
			for j, by := range c.Bytes {
				if j > 0 {
					b.WriteString(" ")
				}
				b.WriteByte(hexDigits[by>>4])
				b.WriteByte(hexDigits[by&0xf])
			}
			b.WriteString("]")
		case ChunkRef:
			printRef(b, c.Ref)
		}
	}
}

// printRef renders a phandle reference. Path references (&{/soc/uart})
// must keep the brace form: a bare "&/soc/uart" does not lex.
func printRef(b *strings.Builder, ref string) {
	b.WriteString("&")
	if strings.HasPrefix(ref, "/") {
		b.WriteString("{")
		b.WriteString(ref)
		b.WriteString("}")
		return
	}
	b.WriteString(ref)
}

// writeQuotedDTS writes s to b as a DTS string literal that the lexer
// reads back byte-for-byte. Go's %q is not safe here: it emits \u
// escapes and bare \0, which DTS does not understand. Hex escapes are
// always two digits, so a following literal hex character cannot be
// absorbed into the escape (the lexer reads at most two digits).
func writeQuotedDTS(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if c >= 0x20 && c <= 0x7e {
				b.WriteByte(c)
			} else {
				b.WriteString(`\x`)
				b.WriteByte(hexDigits[c>>4])
				b.WriteByte(hexDigits[c&0xf])
			}
		}
	}
	b.WriteByte('"')
}

const hexDigits = "0123456789abcdef"

// writeHex writes v as 0x followed by its lowercase hex digits.
func writeHex(b *strings.Builder, v uint64) {
	var buf [18]byte
	b.Write(strconv.AppendUint(append(buf[:0], '0', 'x'), v, 16))
}

// writeTabs writes depth tabs of indentation.
func writeTabs(b *strings.Builder, depth int) {
	for ; depth > 0; depth-- {
		b.WriteByte('\t')
	}
}
