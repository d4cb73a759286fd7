package dts

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The fmt-based printer the production printer replaced, frozen as the
// oracle: Print and FormatValue must stay byte for byte what it writes.

func fmtPrint(t *Tree) string {
	var b strings.Builder
	b.WriteString("/dts-v1/;\n")
	if t.Plugin {
		b.WriteString("/plugin/;\n")
	}
	b.WriteString("\n")
	for _, mr := range t.MemReserves {
		fmt.Fprintf(&b, "/memreserve/ 0x%x 0x%x;\n", mr.Address, mr.Size)
	}
	if len(t.MemReserves) > 0 {
		b.WriteString("\n")
	}
	fmtPrintNode(&b, t.Root, 0)
	for _, f := range t.Fragments {
		b.WriteString("\n")
		fmtPrintRef(&b, f.Ref)
		b.WriteString(" {\n")
		fmtPrintNodeInner(&b, f.Node, 0)
		b.WriteString("};\n")
	}
	return b.String()
}

func fmtPrintNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("\t", depth)
	b.WriteString(indent)
	if n.Label != "" {
		b.WriteString(n.Label)
		b.WriteString(": ")
	}
	b.WriteString(n.Name)
	b.WriteString(" {\n")
	fmtPrintNodeInner(b, n, depth)
	b.WriteString(indent)
	b.WriteString("};\n")
}

func fmtPrintNodeInner(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("\t", depth)
	inner := indent + "\t"
	for _, p := range n.Properties {
		b.WriteString(inner)
		b.WriteString(p.Name)
		if !p.Value.IsEmpty() {
			b.WriteString(" = ")
			fmtPrintValue(b, p.Value)
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
		fmtPrintNode(b, c, depth+1)
	}
}

func fmtPrintValue(b *strings.Builder, v Value) {
	for i, c := range v.Chunks {
		if i > 0 {
			b.WriteString(", ")
		}
		switch c.Kind {
		case ChunkCells:
			if c.Bits != 0 {
				fmt.Fprintf(b, "/bits/ %d ", c.Bits)
			}
			b.WriteString("<")
			for j, cell := range c.CellList {
				if j > 0 {
					b.WriteString(" ")
				}
				switch {
				case cell.Ref != "":
					fmtPrintRef(b, cell.Ref)
				case c.Bits == 64:
					fmt.Fprintf(b, "0x%x", cell.Val64)
				default:
					fmt.Fprintf(b, "0x%x", cell.Val)
				}
			}
			b.WriteString(">")
		case ChunkString:
			b.WriteString(fmtQuoteDTS(c.Str))
		case ChunkBytes:
			b.WriteString("[")
			for j, by := range c.Bytes {
				if j > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(b, "%02x", by)
			}
			b.WriteString("]")
		case ChunkRef:
			fmtPrintRef(b, c.Ref)
		}
	}
}

func fmtPrintRef(b *strings.Builder, ref string) {
	b.WriteString("&")
	if strings.HasPrefix(ref, "/") {
		b.WriteString("{")
		b.WriteString(ref)
		b.WriteString("}")
		return
	}
	b.WriteString(ref)
}

func fmtQuoteDTS(s string) string {
	var b strings.Builder
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
				fmt.Fprintf(&b, `\x%02x`, c)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// randomRef is a label or a path reference.
func randomRef(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return fmt.Sprintf("/soc/uart@%x", r.Uint32())
	}
	return fmt.Sprintf("label%d", r.Intn(100))
}

// randomUint64 spreads values over every digit count, zero included.
func randomUint64(r *rand.Rand) uint64 {
	return r.Uint64() >> uint(r.Intn(65))
}

func randomDTSString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		if r.Intn(3) == 0 {
			b[i] = byte(r.Intn(256)) // control, DEL and high bytes
		} else {
			const alphabet = "az09 \"\\\n\t\r,;{}<>&"
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
	}
	return string(b)
}

func randomValue(r *rand.Rand) Value {
	var v Value
	for n := r.Intn(4); n > 0; n-- {
		switch r.Intn(4) {
		case 0:
			c := Chunk{Kind: ChunkCells, Bits: []int{0, 8, 16, 32, 64}[r.Intn(5)]}
			for k := r.Intn(5); k > 0; k-- {
				var cell Cell
				switch {
				case r.Intn(5) == 0:
					cell.Ref = randomRef(r)
				case c.Bits == 64:
					cell.Val64 = randomUint64(r)
					cell.Val = uint32(cell.Val64)
				default:
					cell.Val = uint32(randomUint64(r))
				}
				c.CellList = append(c.CellList, cell)
			}
			v.Chunks = append(v.Chunks, c)
		case 1:
			v.Chunks = append(v.Chunks, Chunk{Kind: ChunkString, Str: randomDTSString(r)})
		case 2:
			c := Chunk{Kind: ChunkBytes, Bytes: make([]byte, r.Intn(6))}
			r.Read(c.Bytes)
			v.Chunks = append(v.Chunks, c)
		case 3:
			v.Chunks = append(v.Chunks, Chunk{Kind: ChunkRef, Ref: randomRef(r)})
		}
	}
	return v
}

func randomNode(r *rand.Rand, name string, depth int) *Node {
	n := &Node{Name: name}
	if r.Intn(3) == 0 {
		n.Label = fmt.Sprintf("l%d", r.Intn(1000))
	}
	for k := r.Intn(4); k > 0; k-- {
		n.Properties = append(n.Properties, &Property{Name: fmt.Sprintf("p%d", k), Value: randomValue(r)})
	}
	if depth < 3 {
		for k := r.Intn(3); k > 0; k-- {
			n.Children = append(n.Children, randomNode(r, fmt.Sprintf("n@%x", k), depth+1))
		}
	}
	return n
}

func TestPrintMatchesFmtPrinter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tr := &Tree{Plugin: r.Intn(4) == 0, Root: randomNode(r, "/", 0)}
		for k := r.Intn(3); k > 0; k-- {
			tr.MemReserves = append(tr.MemReserves, MemReserve{Address: randomUint64(r), Size: randomUint64(r)})
		}
		for k := r.Intn(3); k > 0; k-- {
			tr.Fragments = append(tr.Fragments, OverlayFragment{Ref: randomRef(r), Node: randomNode(r, "", 1)})
		}
		if got, want := tr.Print(), fmtPrint(tr); got != want {
			t.Fatalf("tree %d: Print differs from the fmt printer:\n got: %q\nwant: %q", i, got, want)
		}
		v := randomValue(r)
		var want strings.Builder
		fmtPrintValue(&want, v)
		if got := FormatValue(v); got != want.String() {
			t.Fatalf("value %d: FormatValue = %q, want %q", i, got, want.String())
		}
	}
}

// TestPrintAllocs gates Print at one allocation, its result: the text
// goes into a recycled buffer, not a builder grown from empty, and the
// result is sized once to the exact text.
func TestPrintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	r := rand.New(rand.NewSource(7))
	tr := &Tree{Root: randomNode(r, "/", 0)}
	for len(tr.Print()) < 4096 {
		tr.Root.Children = append(tr.Root.Children, randomNode(r, fmt.Sprintf("n%d", len(tr.Root.Children)), 1))
	}
	if allocs := testing.AllocsPerRun(50, func() { tr.Print() }); allocs > 1 {
		t.Errorf("Print of a %d-byte tree allocates %.0f times, want 1", len(tr.Print()), allocs)
	}
}
