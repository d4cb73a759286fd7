// Package bench provides the workloads of the experiments of DESIGN.md
// §4: generators that synthesize DeviceTrees, feature models, delta
// chains and product lines of arbitrary size, so the checkers can be
// exercised far beyond the running example, substituting for the
// hardware the paper targets (DESIGN.md §2); and the E10 fault corpus
// with its detection matrix. The package's tests hold the paper's
// experiments (E1–E7, E10) to their known answers, with the E12
// infeasibility bound and the E16 lifted-checking gate; timings are
// the Benchmark functions here and in the repository root's
// bench_test.go.
package bench

import (
	"fmt"
	"math/rand"

	"llhsc/internal/addr"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// SyntheticDTS builds a board DTS with the given number of disjoint
// memory banks and device nodes (uart-like, 4 KiB windows), using
// 32-bit addressing. The layout is deterministic and collision-free.
func SyntheticDTS(banks, devices int) *dts.Tree {
	tree := dts.NewTree()
	root := tree.Root
	root.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	root.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(1)})
	root.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("llhsc,synthetic")})

	// memory banks: 1 MiB each, starting at 1 GiB, spaced by 2 MiB
	const bankSize = 0x100000
	var cells []uint32
	for i := 0; i < banks; i++ {
		base := uint32(0x40000000 + i*2*bankSize)
		cells = append(cells, base, bankSize)
	}
	if banks > 0 {
		mem := root.EnsureChild(fmt.Sprintf("memory@%x", 0x40000000))
		mem.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("memory")})
		mem.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(cells...)})
	}

	// devices: 4 KiB windows from 0x10000000, spaced by 64 KiB
	for i := 0; i < devices; i++ {
		base := uint32(0x10000000 + i*0x10000)
		dev := root.EnsureChild(fmt.Sprintf("uart@%x", base))
		dev.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("ns16550a")})
		dev.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(base, 0x1000)})
	}

	cpus := root.EnsureChild("cpus")
	cpus.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	cpus.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(0)})
	for i := 0; i < 2; i++ {
		cpu := cpus.EnsureChild(fmt.Sprintf("cpu@%d", i))
		cpu.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("cpu")})
		cpu.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("arm,cortex-a53")})
		cpu.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(uint32(i))})
	}
	return tree
}

// SyntheticRegions produces n regions; when withOverlap is true the
// last region is moved onto the first one so exactly one collision
// exists. Otherwise all regions are pairwise disjoint (the worst case
// for the solver: every pairwise query is unsatisfiable).
func SyntheticRegions(n int, withOverlap bool) []addr.Region {
	regions := make([]addr.Region, n)
	for i := range regions {
		regions[i] = addr.Region{
			Base: uint64(0x1000_0000 + i*0x10_0000),
			Size: 0x8_0000,
			Path: fmt.Sprintf("/dev@%d", i),
			Kind: addr.KindDevice,
		}
	}
	if withOverlap && n >= 2 {
		regions[n-1].Base = regions[0].Base + 0x1000
	}
	return regions
}

// SyntheticFeatureModel builds a feature model with approximately the
// requested number of features: a balanced tree of alternating OR/XOR
// groups over optional AND layers, plus ~10% random requires/excludes
// cross constraints. Deterministic for a given seed.
func SyntheticFeatureModel(features int, seed int64) *featmodel.Model {
	rng := rand.New(rand.NewSource(seed))
	if features < 2 {
		features = 2
	}
	root := &featmodel.Feature{Name: "root", Abstract: true, Group: featmodel.GroupAnd}
	count := 1
	var leaves []*featmodel.Feature
	frontier := []*featmodel.Feature{root}

	for count < features {
		if len(frontier) == 0 {
			// re-expand a leaf so the tree always reaches the target size
			if len(leaves) == 0 {
				break
			}
			frontier = append(frontier, leaves[0])
			leaves = leaves[1:]
		}
		parent := frontier[0]
		frontier = frontier[1:]
		groupSize := 2 + rng.Intn(3)
		switch rng.Intn(3) {
		case 0:
			parent.Group = featmodel.GroupOr
		case 1:
			parent.Group = featmodel.GroupXor
		default:
			parent.Group = featmodel.GroupAnd
		}
		for g := 0; g < groupSize && count < features; g++ {
			child := &featmodel.Feature{
				Name:  fmt.Sprintf("f%d", count),
				Group: featmodel.GroupAnd,
			}
			if parent.Group == featmodel.GroupAnd && rng.Intn(2) == 0 {
				child.Mandatory = true
			}
			parent.Children = append(parent.Children, child)
			count++
			if rng.Intn(3) == 0 {
				frontier = append(frontier, child)
			} else {
				leaves = append(leaves, child)
			}
		}
	}

	var constraints []*featmodel.Expr
	if len(leaves) >= 2 {
		nc := len(leaves) / 10
		for i := 0; i < nc; i++ {
			a := leaves[rng.Intn(len(leaves))]
			b := leaves[rng.Intn(len(leaves))]
			if a == b {
				continue
			}
			if rng.Intn(2) == 0 {
				constraints = append(constraints,
					featmodel.Implies(featmodel.Var(a.Name), featmodel.Var(b.Name)))
			} else {
				constraints = append(constraints,
					featmodel.Implies(featmodel.Var(a.Name), featmodel.Not(featmodel.Var(b.Name))))
			}
		}
	}
	m, err := featmodel.NewModel(root, constraints...)
	if err != nil {
		// generator produces unique names by construction
		panic(err)
	}
	return m
}

// SyntheticDeltaChain builds a core DTS plus a chain of k deltas, each
// adding one device node under the root and ordered after its
// predecessor. All deltas are unconditionally active.
func SyntheticDeltaChain(k int) (*dts.Tree, *delta.Set, error) {
	core := SyntheticDTS(2, 0)
	deltas := make([]*delta.Delta, k)
	for i := 0; i < k; i++ {
		base := uint32(0x20000000 + i*0x10000)
		frag := &dts.Node{Name: "/"}
		dev := &dts.Node{Name: fmt.Sprintf("dev@%x", base)}
		dev.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("llhsc,dev")})
		dev.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(base, 0x1000)})
		frag.Children = append(frag.Children, dev)
		d := &delta.Delta{
			Name: fmt.Sprintf("d%d", i),
			Ops:  []delta.Operation{{Kind: delta.OpAdds, Target: "/", Fragment: frag}},
		}
		if i > 0 {
			d.After = []string{fmt.Sprintf("d%d", i-1)}
		}
		deltas[i] = d
	}
	set, err := delta.NewSet(deltas)
	if err != nil {
		return nil, nil, err
	}
	return core, set, nil
}
