package constraints

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"llhsc/internal/addr"
)

// TestRegionInterval pins the arithmetic model to overlapTerm's
// truncation rules: empty regions admit no address, regions reaching or
// wrapping past 2^width keep only their (truncated) lower bound.
func TestRegionInterval(t *testing.T) {
	for _, tt := range []struct {
		name  string
		r     addr.Region
		width int
		want  interval
		ok    bool
	}{
		{"empty", addr.Region{Base: 0x100, Size: 0}, 32, interval{}, false},
		{"normal", addr.Region{Base: 0x100, Size: 0x10}, 32, interval{lo: 0x100, hi: 0x110}, true},
		{"ends exactly at top", addr.Region{Base: 0xFFFF_F000, Size: 0x1000}, 32,
			interval{lo: 0xFFFF_F000, top: true}, true},
		{"past the top", addr.Region{Base: 0xFFFF_FFF0, Size: 0x100}, 32,
			interval{lo: 0xFFFF_FFF0, top: true}, true},
		{"base beyond width", addr.Region{Base: 0x1_2345_0000, Size: 0x10}, 32,
			interval{lo: 0x2345_0000, top: true}, true},
		{"64-bit wrap", addr.Region{Base: ^uint64(0) - 0xF, Size: 0x100}, 64,
			interval{lo: ^uint64(0) - 0xF, top: true}, true},
		{"narrow width", addr.Region{Base: 0x3F0, Size: 0x20}, 10,
			interval{lo: 0x3F0, top: true}, true},
	} {
		got, ok := regionInterval(tt.r, tt.width)
		if ok != tt.ok || got != tt.want {
			t.Errorf("%s: regionInterval = %+v, %v; want %+v, %v", tt.name, got, ok, tt.want, tt.ok)
		}
	}
}

func TestIntervalsOverlap(t *testing.T) {
	iv := func(lo, hi uint64) interval { return interval{lo: lo, hi: hi} }
	top := func(lo uint64) interval { return interval{lo: lo, top: true} }
	for _, tt := range []struct {
		name string
		a, b interval
		want bool
	}{
		{"disjoint", iv(0, 0x10), iv(0x20, 0x30), false},
		{"adjacent do not overlap", iv(0, 0x10), iv(0x10, 0x20), false},
		{"one-address overlap", iv(0, 0x11), iv(0x10, 0x20), true},
		{"contained", iv(0, 0x100), iv(0x40, 0x50), true},
		{"top reaches later region", top(0x100), iv(0x200, 0x210), true},
		{"top misses earlier region", top(0x100), iv(0x40, 0x80), false},
		{"top boundary", top(0x100), iv(0xF0, 0x101), true},
		{"two tops", top(0x500), top(0x10), true},
	} {
		if got := intervalsOverlap(tt.a, tt.b); got != tt.want {
			t.Errorf("%s: intervalsOverlap(%+v, %+v) = %v, want %v", tt.name, tt.a, tt.b, got, tt.want)
		}
		if got := intervalsOverlap(tt.b, tt.a); got != tt.want {
			t.Errorf("%s (swapped): got %v, want %v", tt.name, got, tt.want)
		}
	}
}

// randomRegions builds adversarial region sets for the cross-validation
// tests: dense enough to overlap, with empty regions, regions
// straddling the top of the address space, and bases beyond the width.
func randomRegions(rng *rand.Rand, n, width int) []addr.Region {
	max := uint64(1) << uint(width)
	span := max
	if span > 1<<16 {
		span = 1 << 16 // keep bases clustered so overlaps actually happen
	}
	regions := make([]addr.Region, n)
	for i := range regions {
		r := addr.Region{
			Base: rng.Uint64() % span,
			Size: uint64(rng.Intn(1 << 10)),
			Path: fmt.Sprintf("/dev@%d", i),
			Kind: addr.KindDevice,
		}
		switch rng.Intn(8) {
		case 0:
			r.Size = 0
		case 1:
			r.Base = max - uint64(rng.Intn(512)) // straddles or touches the top
		case 2:
			r.Base = max + uint64(rng.Intn(1024)) // beyond the width: truncates
		}
		regions[i] = r
	}
	return regions
}

// TestSweepCandidatesMatchOracle: the sweep must emit exactly the
// eligible pairs whose intervals overlap — no pruned true candidate, no
// spurious one — in candidatePairs order.
func TestSweepCandidatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := NewSemanticChecker()
	for iter := 0; iter < 80; iter++ {
		width := []int{32, 12}[iter%2]
		n := 3 + rng.Intn(30)
		regions := randomRegions(rng, n, width)
		got := sc.sweepCandidates(regions, width)
		var want [][2]int
		for _, p := range sc.candidatePairs(regions) {
			ia, aok := regionInterval(regions[p[0]], width)
			ib, bok := regionInterval(regions[p[1]], width)
			if aok && bok && intervalsOverlap(ia, ib) {
				want = append(want, p)
			}
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (width %d, n %d): sweep candidates %v, oracle %v\nregions: %+v",
				iter, width, n, got, want, regions)
		}
	}
}

// TestStrategiesAgreeOnRandomRegions is the randomized cross-validation
// of DESIGN.md §9 and §13 between the two ways of deciding formula (7):
// the production path (sweep, then word tier) and the bit-blasting
// oracle over every eligible pair. Both must report the same colliding
// pairs with byte-identical witnesses, and every witness must inhabit
// both regions under the width's truncation semantics.
func TestStrategiesAgreeOnRandomRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 25; iter++ {
		width := []int{32, 12}[iter%2]
		regions := randomRegions(rng, 4+rng.Intn(8), width)
		got, err := NewSemanticChecker().FindCollisionsContext(context.Background(), regions, width)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, col := range got {
			for _, r := range []addr.Region{col.A, col.B} {
				iv, ok := regionInterval(r, width)
				if !ok || col.Witness < iv.lo || (!iv.top && col.Witness >= iv.hi) {
					t.Errorf("iter %d: witness %#x outside region %+v (width %d)",
						iter, col.Witness, r, width)
				}
			}
		}
		want := oracleFindCollisions(t, regions, width)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (width %d): production disagrees with the oracle (verdicts or witnesses):\n got %v\nwant %v\nregions: %+v",
				iter, width, got, want, regions)
		}
	}
}

// TestSemanticStatsSweepPrunes: on disjoint regions the sweep leaves no
// candidate at all, and on overlapping ones the word tier decides every
// candidate without a solver call.
func TestSemanticStatsSweepPrunes(t *testing.T) {
	regions := make([]addr.Region, 16)
	for i := range regions {
		regions[i] = addr.Region{
			Base: uint64(i) * 0x1000, Size: 0x100,
			Path: fmt.Sprintf("/dev@%d", i), Kind: addr.KindDevice,
		}
	}
	sc := NewSemanticChecker()
	if out := sc.FindCollisions(regions, 32); len(out) != 0 {
		t.Fatalf("collisions = %v, want none", out)
	}
	if st := sc.LastStats(); st.SolverCalls != 0 || st.Pairs != 0 || st.Collisions != 0 || st.PairsPruned != 16*15/2 {
		t.Errorf("sweep stats on disjoint regions = %+v, want no pairs, all %d pruned", st, 16*15/2)
	}

	for i := range regions {
		regions[i].Size = 0x1800 // each region now reaches into the next one
	}
	out := sc.FindCollisions(regions, 32)
	st := sc.LastStats()
	if len(out) != 15 || st.Pairs != 15 || st.WordDecided != 15 || st.SolverCalls != 0 {
		t.Errorf("overlapping chain: %d collisions, stats %+v; want 15 word-decided pairs, no solver calls", len(out), st)
	}
}

// TestFindCollisionsContextCanceled: with no solver to poll the
// context, the pair loop itself must stop on cancellation with
// context.Canceled.
func TestFindCollisionsContextCanceled(t *testing.T) {
	regions := []addr.Region{
		{Base: 0x1000, Size: 0x100, Path: "/a"},
		{Base: 0x1080, Size: 0x100, Path: "/b"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := NewSemanticChecker().FindCollisionsContext(ctx, regions, 32)
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want context.Canceled", err, err)
	}
	if len(out) != 0 {
		t.Errorf("canceled search reported collisions %v", out)
	}
}
