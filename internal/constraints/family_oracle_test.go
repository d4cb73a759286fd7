package constraints

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/sat"
	"llhsc/internal/smt"
)

// This file is the test oracle of the interrupt and memreserve
// families: their bit-vector encodings taken literally, with every
// decision made by a solver. Interrupts: a 32-bit line variable
// asserted equal to both constants of a claim pair. Memreserve
// containment: an address inside the reserve (overlapTerm) and outside
// every memory bank; disjointness: an address inside both reserves.
// Satisfiable queries are witnessed by minimizeBV, the least model, so
// production (interruptRule, memReserveRule) must reproduce verdicts,
// messages and witness bytes exactly. TestInterruptMatchesOracle,
// TestMemReserveMatchesOracle and the report suites in
// report_oracle_test.go hold it to that.

// oracleInterrupts is InterruptChecker.Check with every claim pair on
// distinct nodes decided by the solver, in (i, j) order.
func oracleInterrupts(t testing.TB, tree *dts.Tree) []Violation {
	t.Helper()
	type claim struct {
		path   string
		irq    uint32
		origin dts.Origin
	}
	var claims []claim
	tree.Root.Walk(func(path string, n *dts.Node) bool {
		if p := n.Property("interrupts"); p != nil {
			for _, cell := range p.Value.Cells() {
				claims = append(claims, claim{path: path, irq: cell.Val, origin: p.Origin})
			}
		}
		return true
	})
	sctx := smt.NewContext()
	solver := smt.NewSolver(sctx)
	line := sctx.BVVar("line", 32)
	var out []Violation
	for i := range claims {
		for j := i + 1; j < len(claims); j++ {
			a, b := claims[i], claims[j]
			if a.path == b.path {
				continue
			}
			solver.Push()
			solver.Assert(sctx.Eq(line, sctx.BVConst(32, uint64(a.irq))))
			solver.Assert(sctx.Eq(line, sctx.BVConst(32, uint64(b.irq))))
			st := solver.Check()
			solver.Pop()
			switch st {
			case sat.Sat:
				out = append(out, Violation{
					Path: a.path, Property: "interrupts", Rule: "semantic:interrupt",
					Message: fmt.Sprintf("interrupt %d also claimed by %s", a.irq, b.path),
					Origin:  a.origin,
				})
			case sat.Unknown:
				t.Fatal("interrupt oracle returned Unknown")
			}
		}
	}
	return out
}

// oracleMemReserve is MemReserveChecker.Check with every containment
// and disjointness query posed to a fresh solver and witnessed by its
// least model.
func oracleMemReserve(t testing.TB, tree *dts.Tree) []Violation {
	t.Helper()
	width := addr.BitWidth(tree.Root.AddressCells())
	regions, _ := addr.CollectRegions(tree)
	var out []Violation
	for i, mr := range tree.MemReserves {
		sctx := smt.NewContext()
		solver := smt.NewSolver(sctx)
		x := sctx.BVVar("x", width)
		solver.Assert(overlapTerm(sctx, x, addr.Region{Base: mr.Address, Size: mr.Size}, width))
		for _, r := range regions {
			if r.Kind == addr.KindMemory {
				solver.Assert(sctx.Not(overlapTerm(sctx, x, r, width)))
			}
		}
		switch solver.Check() {
		case sat.Sat:
			out = append(out, Violation{
				Rule: "semantic:memreserve-outside-ram",
				Message: fmt.Sprintf(
					"/memreserve/ %d (0x%x+0x%x) covers address 0x%x outside every memory bank",
					i, mr.Address, mr.Size, minimizeBV(t, solver, x, width)),
			})
		case sat.Unknown:
			t.Fatal("memreserve oracle returned Unknown")
		}
	}
	for i := range tree.MemReserves {
		for j := i + 1; j < len(tree.MemReserves); j++ {
			a := addr.Region{Base: tree.MemReserves[i].Address, Size: tree.MemReserves[i].Size}
			b := addr.Region{Base: tree.MemReserves[j].Address, Size: tree.MemReserves[j].Size}
			if overlap, w := oraclePair(t, a, b, width); overlap {
				out = append(out, Violation{
					Rule:    "semantic:memreserve-overlap",
					Message: fmt.Sprintf("/memreserve/ %d and %d overlap at address 0x%x", i, j, w),
				})
			}
		}
	}
	return out
}

// OracleInterrupts and OracleMemReserve export the oracles to the
// external test package's report suites.
func OracleInterrupts(t testing.TB, tree *dts.Tree) []Violation { return oracleInterrupts(t, tree) }

func OracleMemReserve(t testing.TB, tree *dts.Tree) []Violation { return oracleMemReserve(t, tree) }

// regCells encodes one (base, size) entry in cells of the given width.
func regCells(width int, base, size uint64) []uint32 {
	if width == 32 {
		return []uint32{uint32(base), uint32(size)}
	}
	return []uint32{uint32(base >> 32), uint32(base), uint32(size >> 32), uint32(size)}
}

// randomReserveTree builds a memory layout and reserves around a
// window that starts either at address 0 or right below 2^width, so
// that banks and reserves meet: banks ending exactly at 2^width,
// adjacent banks (sometimes two entries of one node) with reserves
// spanning the seam, reserves at the window start, zero-size reserves
// and duplicates.
func randomReserveTree(rng *rand.Rand, width int) *dts.Tree {
	cells := uint32(width / 32)
	tree := dts.NewTree()
	tree.Root.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(cells)})
	tree.Root.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(cells)})

	top := uint64(1) << 32
	if width == 64 {
		top = 0 // 2^64 wraps to 0
	}
	window := uint64(0)
	if rng.Intn(2) == 0 {
		window = top - 0x10000
	}
	at := func() uint64 { return window + uint64(rng.Intn(0x100))*0x100 }
	size := func() uint64 { return uint64(1+rng.Intn(0x40)) * 0x100 }

	var seams []uint64 // bank boundaries a reserve may straddle
	for k, n := 0, 1+rng.Intn(3); k < n; k++ {
		base, sz := at(), size()
		var reg []uint32
		switch rng.Intn(4) {
		case 0: // reaches the top of the address space exactly
			sz = 0x1000 * uint64(1+rng.Intn(4))
			base = top - sz
			reg = regCells(width, base, sz)
		case 1: // two adjacent banks in one node
			next := size()
			reg = append(regCells(width, base, sz), regCells(width, base+sz, next)...)
			seams = append(seams, base+sz)
		default:
			reg = regCells(width, base, sz)
			seams = append(seams, base+sz)
		}
		mem := tree.Root.EnsureChild(fmt.Sprintf("memory@%x", base))
		mem.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("memory")})
		mem.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(reg...)})
	}
	for k, n := 0, 1+rng.Intn(4); k < n; k++ {
		mr := dts.MemReserve{Address: at(), Size: size()}
		switch rng.Intn(5) {
		case 0:
			mr.Size = 0
		case 1:
			if len(tree.MemReserves) > 0 {
				mr = tree.MemReserves[rng.Intn(len(tree.MemReserves))]
			}
		case 2:
			if len(seams) > 0 {
				seam := seams[rng.Intn(len(seams))]
				mr = dts.MemReserve{Address: seam - 0x80, Size: 0x100}
			}
		case 3:
			mr.Address = window
		}
		tree.MemReserves = append(tree.MemReserves, mr)
	}
	return tree
}

// TestMemReserveMatchesOracle is the seeded differential test of the
// memreserve family: verdicts, messages and witness bytes must equal
// the bit-vector encoding's least models, at widths 32 and 64.
func TestMemReserveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var outside, inner, overlap, clean int
	for iter := 0; iter < 120; iter++ {
		width := []int{32, 64}[iter%2]
		tree := randomReserveTree(rng, width)
		got := MemReserveChecker{}.Check(tree)
		want := oracleMemReserve(t, tree)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (width %d): production differs from the oracle:\n got %v\nwant %v\n%s",
				iter, width, got, want, tree.Print())
		}
		if len(got) == 0 {
			clean++
		}
		for _, v := range got {
			switch v.Rule {
			case "semantic:memreserve-overlap":
				overlap++
			default:
				outside++
				var i int
				var lo, size, w uint64
				fmt.Sscanf(v.Message, "/memreserve/ %d (0x%x+0x%x) covers address 0x%x", &i, &lo, &size, &w)
				if w != lo {
					inner++
				}
			}
		}
	}
	// The corpus must reach every shape the rule distinguishes.
	if outside == 0 || inner == 0 || overlap == 0 || clean == 0 {
		t.Errorf("coverage: %d outside-ram (%d witnessed past the reserve start), %d overlap, %d clean trees",
			outside, inner, overlap, clean)
	}
}

// TestInterruptMatchesOracle is the seeded differential test of the
// interrupt family: random claims, several cells per node and repeats
// within one node, against the per-pair equality query.
func TestInterruptMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	clashes := 0
	for iter := 0; iter < 40; iter++ {
		tree := dts.NewTree()
		for k, n := 0, 2+rng.Intn(6); k < n; k++ {
			irqs := make([]uint32, 1+rng.Intn(3))
			for c := range irqs {
				irqs[c] = uint32(rng.Intn(8))
			}
			node := tree.Root.EnsureChild(fmt.Sprintf("dev@%x", k))
			node.SetProperty(&dts.Property{Name: "interrupts", Value: dts.CellsValue(irqs...)})
		}
		got := InterruptChecker{}.Check(tree)
		want := oracleInterrupts(t, tree)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: production differs from the oracle:\n got %v\nwant %v\n%s",
				iter, got, want, tree.Print())
		}
		clashes += len(got)
	}
	if clashes == 0 {
		t.Error("no interrupt clash generated")
	}
}
