package constraints

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
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
// the hot-path contract: the word-tier pair sweep must not allocate per
// pair. A fixed per-call setup cost is tolerated; what must not happen
// is allocation scaling with the pair count.
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

	sc := NewSemanticChecker()
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
		t.Errorf("word-tier sweep allocates per pair: %.1f allocs for %d pairs vs %.1f for 4",
			many, len(pairs), few)
	}
}

// TestLiftedCheckerAllocs bounds the allocations of one lifted check of
// the running example with the standard schemas (~730 measured).
// Guards are interned handles composed through memos, reachability
// verdicts are cached in a slice indexed by handle, and unreachable reg
// options and schema property options are skipped before any decoding
// or rule runs, so the check builds no guard expression, guard string or
// Tseitin gate for a conjunction. The checker reuses one *Model, so its
// session copies the model's Encoding without building it again. Sat
// verdicts keep their model as a bitset, decoded only for a finding,
// and leaf nodes build no interpretation context.
func TestLiftedCheckerAllocs(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := lc.CheckContext(ctx, lifted); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1_200 {
		t.Errorf("lifted check allocates %.0f allocs/op, want <= 1200", allocs)
	}
}

// TestLiftedCheckerBytes bounds the memory one lifted check of the
// running example allocates (~64 KB measured). Besides what
// TestLiftedCheckerAllocs counts, it holds the session's clause arena
// to the session's size: a full 256-header chunk and 4,096-literal slab
// for its 36 clauses, a witness map per Sat verdict and contexts under
// leaf nodes took it to ~108 KB.
func TestLiftedCheckerBytes(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	ctx := context.Background()
	if _, err := lc.CheckContext(ctx, lifted); err != nil { // warm the model's Encoding
		t.Fatal(err)
	}
	const runs, bound = 20, 80_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := lc.CheckContext(ctx, lifted); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > bound {
		t.Errorf("lifted check allocates %d bytes/op, want <= %d", perRun, bound)
	}
}

// TestLiftedCheckerAllocsFreshModel is TestLiftedCheckerAllocs with the
// model parsed on every run, as the service parses it for a product
// line its front-end memo does not hold, so it also bounds the parse
// and the one encoding per model (~800 measured).
func TestLiftedCheckerAllocsFreshModel(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	text := model.Format()
	set := schema.StandardSet()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		m, err := featmodel.ParseModel("customsbc.fm", text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewLiftedChecker(m, set).CheckContext(ctx, lifted); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1_320 {
		t.Errorf("lifted check of a fresh model allocates %.0f allocs/op, want <= 1320", allocs)
	}
}

// TestAllocationCheckerAllocs bounds the allocations of building an
// allocation checker and checking the running example's two VMs. The
// check is ground evaluation, so it allocates only the checker itself;
// the multi-VM CNF encoding it replaced took about 2,240 allocations.
func TestAllocationCheckerAllocs(t *testing.T) {
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	configs := []featmodel.Configuration{runningexample.VM1Config(), runningexample.VM2Config()}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, err := NewAllocationChecker(model, len(configs))
		if err != nil {
			t.Fatal(err)
		}
		if vs, err := c.CheckContext(ctx, configs); err != nil || vs != nil {
			t.Fatalf("running example rejected: %v, %v", vs, err)
		}
	})
	if allocs > 2 {
		t.Errorf("allocation check allocates %.0f allocs/op, want <= 2", allocs)
	}
}
