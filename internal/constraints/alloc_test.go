package constraints

import (
	"context"
	"fmt"
	"testing"

	"llhsc/internal/addr"
)

// TestDecideConcretePairZeroAllocs pins the word tier's concrete
// decision path to 0 allocs/op — the acceptance bar of the
// zero-allocation hot path (DESIGN.md §13). If this fails, something
// on the DecideConcretePair → regionInterval → intervalsOverlap chain
// started escaping to the heap; future PRs must not regress it.
func TestDecideConcretePairZeroAllocs(t *testing.T) {
	a := addr.Region{Base: 0x4000_0000, Size: 0x10_0000, Path: "/mem@40000000"}
	b := addr.Region{Base: 0x4008_0000, Size: 0x10_0000, Path: "/dev@40080000"}
	c := addr.Region{Base: 0x9000_0000, Size: 0x1000, Path: "/dev@90000000"}

	allocs := testing.AllocsPerRun(1000, func() {
		if overlap, w := DecideConcretePair(a, b, 64); !overlap || w != b.Base {
			t.Fatal("overlap pair decided wrongly")
		}
		if overlap, _ := DecideConcretePair(a, c, 64); overlap {
			t.Fatal("disjoint pair decided wrongly")
		}
	})
	if allocs != 0 {
		t.Errorf("DecideConcretePair allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestWordTierSweepUninstrumentedNoPerPairAllocs pins the other half of
// the hot-path contract: with OnQuery nil (slow-query logging off, the
// production default) the word-tier pair sweep must not allocate per
// pair. A fixed per-call setup cost is tolerated; what must not happen
// is allocation scaling with the pair count — that would mean the
// instrumentation hooks leak onto the disabled path.
func TestWordTierSweepUninstrumentedNoPerPairAllocs(t *testing.T) {
	const n = 32
	regions := make([]addr.Region, n)
	for i := range regions {
		regions[i] = addr.Region{
			Base: 0x1000_0000 + uint64(i)*0x1_0000,
			Size: 0x100,
			Path: fmt.Sprintf("/dev@%d", i),
		}
	}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}

	sc := NewSemanticChecker() // OnQuery nil: instrumentation disabled
	ctx := context.Background()
	allocsFor := func(ps [][2]int) float64 {
		return testing.AllocsPerRun(200, func() {
			err := sc.decidePairs(ctx, regions, 64, ps, func([2]int, Collision) {
				t.Fatal("disjoint regions produced collisions")
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocsFor(pairs[:4]), allocsFor(pairs)
	if many > few {
		t.Errorf("word-tier sweep allocates per pair with OnQuery nil: %.1f allocs for %d pairs vs %.1f for 4",
			many, len(pairs), few)
	}
}
