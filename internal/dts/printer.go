package dts

import (
	"strconv"
	"strings"
	"sync"
)

// Print renders the tree as canonical DTS text: /dts-v1/ header (plus
// /plugin/ for overlays), tab indentation, cells in hexadecimal,
// properties before children, then overlay fragments as `&label { }`
// extension blocks in document order.
func (t *Tree) Print() string {
	return render(t.print)
}

// print writes Print's text to b.
func (t *Tree) print(b *printBuf) {
	b.writeString("/dts-v1/;\n")
	if t.Plugin {
		b.writeString("/plugin/;\n")
	}
	b.writeString("\n")
	for _, mr := range t.MemReserves {
		b.writeString("/memreserve/ ")
		writeHex(b, mr.Address)
		b.writeByte(' ')
		writeHex(b, mr.Size)
		b.writeString(";\n")
	}
	if len(t.MemReserves) > 0 {
		b.writeString("\n")
	}
	printNode(b, t.Root, 0)
	for _, f := range t.Fragments {
		b.writeString("\n")
		printRef(b, f.Ref)
		b.writeString(" {\n")
		printNodeInner(b, f.Node, 0)
		b.writeString("};\n")
	}
}

func printNode(b *printBuf, n *Node, depth int) {
	writeTabs(b, depth)
	if n.Label != "" {
		b.writeString(n.Label)
		b.writeString(": ")
	}
	b.writeString(n.Name)
	b.writeString(" {\n")
	printNodeInner(b, n, depth)
	writeTabs(b, depth)
	b.writeString("};\n")
}

// printNodeInner renders a node's properties and children without the
// surrounding header/footer, shared by printNode and the overlay
// fragment printer (whose header is a reference, not a name).
func printNodeInner(b *printBuf, n *Node, depth int) {
	for _, p := range n.Properties {
		writeTabs(b, depth+1)
		b.writeString(p.Name)
		if !p.Value.IsEmpty() {
			b.writeString(" = ")
			printValue(b, p.Value)
		}
		b.writeString(";\n")
	}
	if len(n.Properties) > 0 && len(n.Children) > 0 {
		b.writeString("\n")
	}
	for i, c := range n.Children {
		if i > 0 {
			b.writeString("\n")
		}
		printNode(b, c, depth+1)
	}
}

// FormatValue renders a property value in the canonical DTS syntax the
// printer uses, for consumers that need a deterministic textual form of
// a value outside a full tree print (e.g. the lifted-tree dump that
// feeds the check cache key).
func FormatValue(v Value) string {
	return render(func(b *printBuf) { printValue(b, v) })
}

// printBuf is the printer's output buffer. Buffers are recycled through
// printBufs, so a print grows no buffer from empty in steady state and
// allocates only its result, sized once to the exact text.
type printBuf struct{ b []byte }

func (p *printBuf) writeString(s string) { p.b = append(p.b, s...) }
func (p *printBuf) writeByte(c byte)     { p.b = append(p.b, c) }

var printBufs = sync.Pool{New: func() any { return new(printBuf) }}

// maxPooledPrintBuf bounds the buffer a print hands back to printBufs,
// so one huge tree does not pin its buffer for every later print.
const maxPooledPrintBuf = 1 << 20

// render runs print into a pooled buffer and returns what it wrote.
func render(print func(*printBuf)) string {
	b := printBufs.Get().(*printBuf)
	print(b)
	s := string(b.b)
	if cap(b.b) <= maxPooledPrintBuf {
		b.b = b.b[:0]
		printBufs.Put(b)
	}
	return s
}

func printValue(b *printBuf, v Value) {
	for i, c := range v.Chunks {
		if i > 0 {
			b.writeString(", ")
		}
		switch c.Kind {
		case ChunkCells:
			if c.Bits != 0 {
				b.writeString("/bits/ ")
				b.writeString(strconv.Itoa(c.Bits))
				b.writeByte(' ')
			}
			b.writeString("<")
			for j, cell := range c.CellList {
				if j > 0 {
					b.writeString(" ")
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
			b.writeString(">")
		case ChunkString:
			writeQuotedDTS(b, c.Str)
		case ChunkBytes:
			b.writeString("[")
			for j, by := range c.Bytes {
				if j > 0 {
					b.writeString(" ")
				}
				b.writeByte(hexDigits[by>>4])
				b.writeByte(hexDigits[by&0xf])
			}
			b.writeString("]")
		case ChunkRef:
			printRef(b, c.Ref)
		}
	}
}

// printRef renders a phandle reference. Path references (&{/soc/uart})
// must keep the brace form: a bare "&/soc/uart" does not lex.
func printRef(b *printBuf, ref string) {
	b.writeString("&")
	if strings.HasPrefix(ref, "/") {
		b.writeString("{")
		b.writeString(ref)
		b.writeString("}")
		return
	}
	b.writeString(ref)
}

// writeQuotedDTS writes s to b as a DTS string literal that the lexer
// reads back byte-for-byte. Go's %q is not safe here: it emits \u
// escapes and bare \0, which DTS does not understand. Hex escapes are
// always two digits, so a following literal hex character cannot be
// absorbed into the escape (the lexer reads at most two digits).
func writeQuotedDTS(b *printBuf, s string) {
	b.writeByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.writeString(`\"`)
		case '\\':
			b.writeString(`\\`)
		case '\n':
			b.writeString(`\n`)
		case '\t':
			b.writeString(`\t`)
		case '\r':
			b.writeString(`\r`)
		default:
			if c >= 0x20 && c <= 0x7e {
				b.writeByte(c)
			} else {
				b.writeString(`\x`)
				b.writeByte(hexDigits[c>>4])
				b.writeByte(hexDigits[c&0xf])
			}
		}
	}
	b.writeByte('"')
}

const hexDigits = "0123456789abcdef"

// writeHex writes v as 0x followed by its lowercase hex digits.
func writeHex(b *printBuf, v uint64) {
	b.b = strconv.AppendUint(append(b.b, '0', 'x'), v, 16)
}

// writeTabs writes depth tabs of indentation.
func writeTabs(b *printBuf, depth int) {
	for ; depth > 0; depth-- {
		b.writeByte('\t')
	}
}
