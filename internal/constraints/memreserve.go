package constraints

import (
	"context"
	"fmt"
	"slices"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/schema"
)

// MemReserveChecker validates /memreserve/ entries against the memory
// banks, with the region checker's interval model (an extension in the
// spirit of Section IV-C: reserved ranges are boot-time contracts whose
// violation is only observable at runtime):
//
//   - every reserved range must lie entirely inside the memory banks
//     (reserving non-RAM addresses is meaningless and usually a typo);
//     the witness is the least reserved address outside every bank,
//   - reserved ranges must not overlap each other; the witness is the
//     least shared address.
//
// Both are decided with word arithmetic, so no solver is built; the
// test suite's SMT oracle holds verdicts and witnesses to the
// bit-vector encoding.
//
// Addresses are as wide as the root #address-cells says.
type MemReserveChecker struct {
	// Stats, when non-nil, receives the call's work counters (reserve
	// pairs and word decisions). A pointer so the checker stays usable
	// as a value: MemReserveChecker{Stats: &st}.
	Stats *SemanticStats
}

// Check validates the tree's memreserve entries.
func (mc MemReserveChecker) Check(tree *dts.Tree) []Violation {
	out, _ := mc.CheckContext(context.Background(), tree)
	return out
}

// CheckContext is Check under a context, polled once per reserve and
// per pair; a non-nil error (ctx.Err()) means cancellation cut the
// checks short, and the violations found so far are still returned.
func (mc MemReserveChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Violation, error) {
	out, st, err := checkMemReserve(ctx, nil, &TreeFacts{Tree: tree})
	st.addCounts(mc.Stats)
	return out, err
}

// checkMemReserve is the memreserve family over one tree's facts. The
// banks are the memory regions of the tree's one region walk, in walk
// order, as the lifted checker filters its own.
func checkMemReserve(ctx context.Context, _ *schema.Set, t *TreeFacts) ([]Violation, SemanticStats, error) {
	var st SemanticStats
	if len(t.Tree.MemReserves) == 0 {
		return nil, st, nil
	}
	regions, _ := t.Regions()
	var banks []guardedRegion
	for _, r := range regions {
		if r.Kind == addr.KindMemory {
			banks = append(banks, guardedRegion{reg: r})
		}
	}
	var out []Violation
	width := addr.BitWidth(t.Tree.Root.AddressCells())
	err := memReserveRule(ctx, t.Tree.MemReserves, banks, width, 0, collect(&out), &st)
	return out, st, err
}

// memReserveRule is the /memreserve/ rule of both checking modes at one
// address width; banks are the memory regions of that width, and base
// guards every report (the lifted root-width option; 0 in enumerative
// mode).
//
// Containment walks each reserve's candidate points — its first address
// and every bank end inside it — in ascending order. The least address
// of the reserve outside every bank is always one of them, so a point p
// is reported under the guard "p is uncovered, and every earlier
// candidate is covered": p is then the least uncovered address of the
// products that satisfy it. With 0 guards every bank always exists,
// and the walk reports the least uncovered address and stops.
//
// Disjointness decides every reserve pair with DecideConcretePair,
// reporting the least shared address.
func memReserveRule(ctx context.Context, reserves []dts.MemReserve, banks []guardedRegion, width int, base featmodel.Guard, s sink, st *SemanticStats) error {
	var points []uint64
	for i, mr := range reserves {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.WordDecided++
		riv, ok := regionInterval(addr.Region{Base: mr.Address, Size: mr.Size}, width)
		if !ok {
			continue // an empty reserve constrains nothing
		}
		points = append(points[:0], riv.lo)
		for _, b := range banks {
			if biv, ok := regionInterval(b.reg, width); ok && !biv.top && riv.contains(biv.hi) {
				points = append(points, biv.hi)
			}
		}
		slices.Sort(points)
		earlier := base // every earlier candidate is covered
		for k, p := range points {
			if k > 0 && p == points[k-1] {
				continue
			}
			var uncovered, covered featmodel.Guard
			covering, always := 0, false
			for _, b := range banks {
				if biv, ok := regionInterval(b.reg, width); !ok || !biv.contains(p) {
					continue
				}
				if b.cond == 0 {
					always = true
					break
				}
				uncovered = s.run.pe.And(uncovered, s.run.pe.Not(b.cond))
				if covering == 0 {
					covered = b.cond
				} else {
					covered = s.run.pe.Or(covered, b.cond)
				}
				covering++
			}
			if always {
				continue // covered in every product: the guards of later points are unchanged
			}
			s.report(earlier, uncovered, Violation{
				Rule: "semantic:memreserve-outside-ram",
				Message: fmt.Sprintf(
					"/memreserve/ %d (0x%x+0x%x) covers address 0x%x outside every memory bank",
					i, mr.Address, mr.Size, p),
			})
			if covering == 0 {
				break // uncovered in every product: no later point is least
			}
			earlier = s.run.pe.And(earlier, covered)
		}
	}

	for i := 0; i < len(reserves); i++ {
		for j := i + 1; j < len(reserves); j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			st.Pairs++
			st.WordDecided++
			a := addr.Region{Base: reserves[i].Address, Size: reserves[i].Size}
			b := addr.Region{Base: reserves[j].Address, Size: reserves[j].Size}
			if overlap, witness := DecideConcretePair(a, b, width); overlap {
				s.report(base, 0, Violation{
					Rule:    "semantic:memreserve-overlap",
					Message: fmt.Sprintf("/memreserve/ %d and %d overlap at address 0x%x", i, j, witness),
				})
			}
		}
	}
	return nil
}
