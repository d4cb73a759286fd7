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
// the running example with the standard schemas (~251 measured). The
// line has 12 valid products, so the checker holds them as product
// sets: the model enumerates them once, on its first check, and every
// later check builds no solver, Tseitin gate or assumption set, and
// composes guards by word arithmetic (~561 in a SAT session, which
// TestLiftedCheckerSessionAllocs bounds on a line past 64 products).
// Guards are interned handles, and unreachable reg options and schema
// property options are skipped before any decoding or rule runs, so
// the check builds no guard expression or guard string. Witnesses are
// decoded only for findings, and leaf nodes build no interpretation
// context.
func TestLiftedCheckerAllocs(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := lc.CheckContext(ctx, lifted); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 280 {
		t.Errorf("lifted check allocates %.0f allocs/op, want <= 280", allocs)
	}
}

// TestLiftedCheckerBytes bounds the memory one lifted check of the
// running example allocates (~22.3 KB measured; ~47 KB in a SAT
// session, whose clause arena, guard memos and witness bitsets the
// product sets do without). A full 256-header clause chunk and
// 4,096-literal slab for the session's 36 clauses, a witness map per
// Sat verdict and contexts under leaf nodes once took it to ~108 KB.
func TestLiftedCheckerBytes(t *testing.T) {
	model, lifted := liftedRunningExample(t)
	lc := NewLiftedChecker(model, schema.StandardSet())
	ctx := context.Background()
	if _, err := lc.CheckContext(ctx, lifted); err != nil { // enumerate the model's products
		t.Fatal(err)
	}
	const runs, bound = 20, 25_000
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
// line its front-end memo does not hold, so it also bounds the parse,
// the one encoding per model and the enumeration of its 12 products
// (~436 measured).
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
	if allocs > 480 {
		t.Errorf("lifted check of a fresh model allocates %.0f allocs/op, want <= 480", allocs)
	}
}

// TestLiftedCheckerSessionAllocs is the SAT-session twin of
// TestLiftedCheckerAllocs and TestLiftedCheckerBytes: one lifted check
// of TestLiftedSchemaPerProperty's line, whose 128 valid products are
// past the 64 a check holds as product sets, so it asks its 47 queries
// in one session. The bounds sit just above what the session allocated
// before the product sets existed (450 allocs and ~51.0 KB measured).
func TestLiftedCheckerSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates in the solver")
	}
	core, set, model, schemas := schemaPerPropertyLine(t)
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	lc := NewLiftedChecker(model, schemas)
	ctx := context.Background()
	check := func() {
		if _, err := lc.CheckContext(ctx, lifted); err != nil {
			t.Fatal(err)
		}
	}
	check() // the feature tree alone sends the line to a session
	if st := lc.LastStats(); st.Products != 0 || st.Queries == 0 {
		t.Fatalf("the 128-product line answered over %d products with %d queries, want a session", st.Products, st.Queries)
	}
	if allocs := testing.AllocsPerRun(5, check); allocs > 460 {
		t.Errorf("lifted session check allocates %.0f allocs/op, want <= 460", allocs)
	}
	const runs, bound = 20, 53_500
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		check()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > bound {
		t.Errorf("lifted session check allocates %d bytes/op, want <= %d", perRun, bound)
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
