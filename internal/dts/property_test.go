package dts

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomTree builds a random but well-formed tree: node names with unit
// addresses, properties of each value kind, labels, nested children.
func randomTree(rng *rand.Rand) *Tree {
	tree := NewTree()
	var fill func(n *Node, depth, index int)
	fill = func(n *Node, depth, index int) {
		nprops := rng.Intn(4)
		for i := 0; i < nprops; i++ {
			name := fmt.Sprintf("prop-%d", i)
			var v Value
			switch rng.Intn(4) {
			case 0:
				vals := make([]uint32, 1+rng.Intn(4))
				for j := range vals {
					vals[j] = rng.Uint32()
				}
				v = CellsValue(vals...)
			case 1:
				v = StringValueOf(fmt.Sprintf("str-%d", rng.Intn(100)))
			case 2:
				b := make([]byte, 1+rng.Intn(6))
				rng.Read(b)
				v = BytesValue(b)
			case 3:
				// boolean marker property
			}
			n.SetProperty(&Property{Name: name, Value: v})
		}
		if depth >= 3 {
			return
		}
		nchildren := rng.Intn(3)
		for i := 0; i < nchildren; i++ {
			name := fmt.Sprintf("node%d", i)
			if rng.Intn(2) == 0 {
				name = fmt.Sprintf("dev%d@%x", i, rng.Intn(1<<30))
			}
			c := &Node{Name: name}
			if rng.Intn(4) == 0 {
				c.Label = fmt.Sprintf("lbl%d%d%d", depth, index, i)
			}
			n.Children = append(n.Children, c)
			fill(c, depth+1, i)
		}
	}
	fill(tree.Root, 0, 0)
	return tree
}

// treesEqual compares trees structurally.
func treesEqual(a, b *Node) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q != %q", a.Name, b.Name)
	}
	if a.Label != b.Label {
		return fmt.Errorf("%s: label %q != %q", a.Name, a.Label, b.Label)
	}
	if len(a.Properties) != len(b.Properties) {
		return fmt.Errorf("%s: %d vs %d properties", a.Name, len(a.Properties), len(b.Properties))
	}
	for i, p := range a.Properties {
		q := b.Properties[i]
		if p.Name != q.Name {
			return fmt.Errorf("%s: property %q != %q", a.Name, p.Name, q.Name)
		}
		if fmt.Sprint(p.Value.U32s()) != fmt.Sprint(q.Value.U32s()) ||
			fmt.Sprint(p.Value.Strings()) != fmt.Sprint(q.Value.Strings()) ||
			fmt.Sprint(p.Value.Bytes()) != fmt.Sprint(q.Value.Bytes()) {
			return fmt.Errorf("%s.%s: values differ", a.Name, p.Name)
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Errorf("%s: %d vs %d children", a.Name, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if err := treesEqual(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestPropertyPrintParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 100; iter++ {
		tree := randomTree(rng)
		printed := tree.Print()
		back, err := Parse("roundtrip.dts", printed)
		if err != nil {
			t.Fatalf("iter %d: reparse failed: %v\n%s", iter, err, printed)
		}
		if err := treesEqual(tree.Root, back.Root); err != nil {
			t.Fatalf("iter %d: round trip changed the tree: %v\n%s", iter, err, printed)
		}
	}
}

func TestPropertyCloneEqualsOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 50; iter++ {
		tree := randomTree(rng)
		clone := tree.Clone()
		if err := treesEqual(tree.Root, clone.Root); err != nil {
			t.Fatalf("iter %d: clone differs: %v", iter, err)
		}
		// mutating the clone must not affect the original
		clone.Root.SetProperty(&Property{Name: "mutation", Value: CellsValue(1)})
		if tree.Root.Property("mutation") != nil {
			t.Fatal("clone mutation leaked")
		}
	}
}

func TestPropertyMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		tree := randomTree(rng)
		merged := tree.Clone()
		merged.Root.Merge(tree.Root.Clone())
		if err := treesEqual(tree.Root, merged.Root); err != nil {
			t.Fatalf("iter %d: self-merge changed the tree: %v", iter, err)
		}
	}
}

// TestValueCellsSharesSingleChunk pins Cells to zero allocations on a
// one-chunk value (it returns the chunk's own list), checks that an
// append to that result leaves the chunk untouched, and that several
// chunks still concatenate with non-32-bit ones left out.
func TestValueCellsSharesSingleChunk(t *testing.T) {
	one := CellsValue(1, 2, 3)
	if allocs := testing.AllocsPerRun(100, func() { _ = one.Cells() }); allocs != 0 {
		t.Errorf("Cells on a one-chunk value: %.0f allocs, want 0", allocs)
	}
	grown := append(one.Cells(), Cell{Val: 9})
	grown[0].Val = 7
	if got := one.U32s(); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("append to Cells wrote into the value: U32s = %v", got)
	}

	multi := Value{Chunks: []Chunk{
		{Kind: ChunkCells, CellList: []Cell{{Val: 1}}},
		{Kind: ChunkCells, Bits: 8, CellList: []Cell{{Val: 0xff}}},
		{Kind: ChunkString, Str: "x"},
		{Kind: ChunkCells, Bits: 32, CellList: []Cell{{Val: 2}, {Val: 3}}},
	}}
	cells := multi.Cells()
	if got := multi.U32s(); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("multi-chunk U32s = %v, want [1 2 3]", got)
	}
	if len(cells) != 3 || cells[0].Val != 1 || cells[1].Val != 2 || cells[2].Val != 3 {
		t.Errorf("multi-chunk Cells = %v", cells)
	}
}
