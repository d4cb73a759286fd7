package checkcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llhsc/internal/constraints"
	"llhsc/internal/dts"
	"llhsc/internal/obs"
)

func sampleViolations() []constraints.Violation {
	return []constraints.Violation{
		{
			Path:     "/soc/uart@fe001000",
			Property: "reg",
			Rule:     "unit-address-matches-reg",
			Message:  "unit address fe001000 does not match first reg entry",
			Origin:   dts.Origin{File: "board.dts", Line: 42, Delta: "vm1"},
		},
		{
			Path:    "/memory@0",
			Rule:    "memreserve-overlap",
			Message: "reservation overlaps /memory@0",
		},
	}
}

func violationsEqual(a, b []constraints.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKeyDistinguishesPartBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("length delimiting failed: shifted parts collide")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Fatal("Key is not deterministic")
	}
}

// TestAppendPartFramesAsKey: a key built in a caller's buffer with
// AppendPart and Sum, and one built with a Hasher, digest the same part
// list as Key does.
func TestAppendPartFramesAsKey(t *testing.T) {
	parts := []string{"front end", "", strings.Repeat("cpu@0 ", 40), "knobs"}
	var b []byte
	h := NewHasher()
	for _, p := range parts {
		b = AppendPart(b, p)
		h.Part(p)
	}
	want := Key(parts...)
	if d := Sum(b); hex.EncodeToString(d[:]) != want {
		t.Errorf("Sum(AppendPart...) = %x, want Key's %s", d, want)
	}
	if d := h.Digest(); hex.EncodeToString(d[:]) != want {
		t.Errorf("Hasher.Digest = %x, want Key's %s", d, want)
	}
	if Sum(AppendPart(AppendPart(nil, "ab"), "c")) == Sum(AppendPart(AppendPart(nil, "a"), "bc")) {
		t.Error("length delimiting failed: shifted parts collide")
	}
}

// TestKeyGolden pins the digest, so a rewrite of Key that only means to
// make it cheaper (hashing parts in place, say) cannot silently change
// how parts are framed: the length prefixes are what keep distinct part
// lists from colliding.
func TestKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		want  string
	}{
		{nil, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{[]string{"/dts-v1/;\n\n/ {\n};\n", "4:node1:/0:0:@0\n", "",
			"conflicts=0;learntlits=0;skipirq=false;lintonly=false;mode=enumerate"},
			"59adcc4c33cb2d1bae6f025a65c078059ca6f393af69ed7af474761632f45569"},
		{[]string{strings.Repeat("uart@1000 ", 1000), "ab", "c"},
			"dbb7e3a183c95c9b971a71a2b4b61cb88595cc6b70328207bf4ec0cf730afff8"},
	} {
		if got := Key(tc.parts...); got != tc.want {
			t.Errorf("Key(%d parts) = %s, want %s", len(tc.parts), got, tc.want)
		}
	}
}

// TestKeyDoesNotCopyParts requires a 64 KiB part to cost no more
// allocations than an empty one.
func TestKeyDoesNotCopyParts(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	empty := testing.AllocsPerRun(20, func() { Key("", "knobs") })
	if got := testing.AllocsPerRun(20, func() { Key(big, "knobs") }); got > empty {
		t.Errorf("Key with a 64 KiB part allocates %.0f times, with an empty part %.0f", got, empty)
	}
}

func TestDoCachesAndCounts(t *testing.T) {
	c := New(4)
	calls := 0
	fn := func() ([]constraints.Violation, error) {
		calls++
		return []constraints.Violation{{Rule: "r", Message: "m"}}, nil
	}
	v1, hit, err := c.Do(context.Background(), "k", fn)
	if err != nil || hit || len(v1) != 1 {
		t.Fatalf("first Do = %v hit=%v err=%v", v1, hit, err)
	}
	v2, hit, err := c.Do(context.Background(), "k", fn)
	if err != nil || !hit || len(v2) != 1 {
		t.Fatalf("second Do = %v hit=%v err=%v", v2, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The returned slice is a copy: appending must not corrupt the cache.
	_ = append(v2, constraints.Violation{Rule: "x"})
	v3, _, _ := c.Do(context.Background(), "k", fn)
	if len(v3) != 1 {
		t.Fatalf("cached slice corrupted by caller append: %v", v3)
	}
}

// doKey looks key up in c, storing a value when it misses, and reports
// whether it hit.
func doKey(t *testing.T, c *Cache, key string) bool {
	t.Helper()
	_, hit, err := c.Do(context.Background(), key, func() ([]constraints.Violation, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

// TestReusedEntrySurvivesScan: a key hit again after it was stored
// outlives a scan of more than capacity keys asked for once each. Under
// LRU the scan pushes it out.
func TestReusedEntrySurvivesScan(t *testing.T) {
	const capacity = 20
	scan := make([]string, 3*capacity)
	for i := range scan {
		scan[i] = fmt.Sprintf("scan%d", i)
	}
	c := New(capacity)
	doKey(t, c, "popular")
	if !doKey(t, c, "popular") {
		t.Fatal("popular missed right after it was stored")
	}
	for _, k := range scan {
		if doKey(t, c, k) {
			t.Fatalf("scan key %s hit", k)
		}
	}
	if !doKey(t, c, "popular") {
		t.Fatalf("a scan of %d one-hit keys evicted the reused key", len(scan))
	}
	lru := newLRUOracle(capacity)
	for _, k := range append([]string{"popular", "popular"}, scan...) {
		lru.get(sha256.Sum256([]byte(k)))
	}
	if lru.get(sha256.Sum256([]byte("popular"))) {
		t.Fatal("the LRU oracle kept the reused key through the scan: the scan does not test the policy")
	}
}

// TestGhostAdmitsToMain: a key evicted from the small queue and asked
// for again leaves the ghost for the main queue, where it outlives the
// next scan.
func TestGhostAdmitsToMain(t *testing.T) {
	const capacity = 10 // a small queue of 1
	c := New(capacity)
	doKey(t, c, "returning")
	for i := 0; i < capacity; i++ {
		doKey(t, c, fmt.Sprintf("first%d", i))
	}
	if doKey(t, c, "returning") {
		t.Fatal("returning survived a full scan without a hit: it was never in the small queue")
	}
	if _, inGhost := c.ghost[sha256.Sum256([]byte("returning"))]; inGhost {
		t.Fatal("a key admitted from the ghost is still in the ghost")
	}
	// In the small queue the key would be the next evicted; in main it
	// is evicted only after main's older entries, and a scan of new
	// keys, each evicted from the small queue in turn, never reaches it.
	for i := 0; i < 3*capacity; i++ {
		doKey(t, c, fmt.Sprintf("second%d", i))
	}
	if !doKey(t, c, "returning") {
		t.Fatal("a key admitted to main from the ghost was evicted by a scan")
	}
}

// TestEntriesCountBothQueues: Stats().Entries and the
// llhsc_checkcache_entries gauge count the small and the main queue
// together, and never exceed capacity however the keys churn.
func TestEntriesCountBothQueues(t *testing.T) {
	const capacity = 10
	c := New(capacity)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	gauge := func() string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "llhsc_checkcache_entries "); ok {
				return v
			}
		}
		t.Fatal("no llhsc_checkcache_entries sample")
		return ""
	}
	for i := 0; i < 200; i++ {
		// A few keys come back often and reach main; the rest pass
		// through the small queue once.
		key := fmt.Sprintf("k%d", i)
		if i%3 == 0 {
			key = fmt.Sprintf("hot%d", i%4)
		}
		doKey(t, c, key)
		c.mu.Lock()
		small, main := c.small.n, c.main.n
		c.mu.Unlock()
		st := c.Stats()
		if st.Entries != small+main || st.Entries > capacity {
			t.Fatalf("after %d lookups: Entries = %d, small %d + main %d, capacity %d", i+1, st.Entries, small, main, capacity)
		}
		if g := gauge(); g != fmt.Sprint(st.Entries) {
			t.Fatalf("after %d lookups: llhsc_checkcache_entries %s, Stats().Entries %d", i+1, g, st.Entries)
		}
	}
	c.mu.Lock()
	small, main := c.small.n, c.main.n
	c.mu.Unlock()
	if small == 0 || main == 0 || small+main != capacity {
		t.Fatalf("at the end: small %d, main %d; want both queues used and %d entries", small, main, capacity)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := New(4)
	var calls int32
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
			atomic.AddInt32(&calls, 1)
			close(started)
			<-release
			return []constraints.Violation{{Rule: "shared"}}, nil
		})
	}()
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]constraints.Violation, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
				atomic.AddInt32(&calls, 1)
				return nil, fmt.Errorf("waiter %d should not compute", i)
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	close(release)
	wg.Wait()
	<-leaderDone

	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := range results {
		if len(results[i]) != 1 || results[i][0].Rule != "shared" {
			t.Fatalf("waiter %d got %v", i, results[i])
		}
		if !hits[i] {
			t.Errorf("waiter %d not counted as a hit", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != waiters {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, waiters)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("budget exhausted")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, hit, err := c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
		calls++
		return nil, nil
	})
	if err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error must not be cached)", calls)
	}
}

func TestWaiterHonorsOwnContext(t *testing.T) {
	c := New(4)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
			close(started)
			<-release
			return nil, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() ([]constraints.Violation, error) {
		t.Error("canceled waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	v, hit, err := c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
		return []constraints.Violation{{Rule: "r"}}, nil
	})
	if err != nil || hit || len(v) != 1 {
		t.Fatalf("nil cache Do = %v hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	calls := 0
	for i := 0; i < 2; i++ {
		if _, hit, _ := c.Do(context.Background(), "k", func() ([]constraints.Violation, error) {
			calls++
			return nil, nil
		}); hit {
			t.Fatal("nil cache served a hit")
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache ran fn %d times for two calls, want 2 (it stores nothing)", calls)
	}
	if New(0) != nil {
		t.Fatal("New(0) should be the disabled (nil) cache")
	}
}

// TestTierPreservesNilVsEmptyViolations: "checked, zero violations"
// (empty) and "nothing to report" (nil) are distinct answers, and the
// memory tier must hand each back as itself on the computing call and
// on every later hit.
func TestTierPreservesNilVsEmptyViolations(t *testing.T) {
	c := New(8)
	kNil, kEmpty := Key("clean"), Key("empty")
	v, _, _ := c.Do(context.Background(), kNil, func() ([]constraints.Violation, error) { return nil, nil })
	if v != nil {
		t.Fatalf("computed nil violations came back as %#v", v)
	}
	v, _, _ = c.Do(context.Background(), kEmpty, func() ([]constraints.Violation, error) {
		return []constraints.Violation{}, nil
	})
	if v == nil || len(v) != 0 {
		t.Fatalf("computed empty violations came back as %#v", v)
	}
	v, hit, _ := c.Do(context.Background(), kNil, func() ([]constraints.Violation, error) {
		t.Fatal("recomputed")
		return nil, nil
	})
	if !hit || v != nil {
		t.Fatalf("nil violations came back as %#v (hit=%v)", v, hit)
	}
	v, hit, _ = c.Do(context.Background(), kEmpty, func() ([]constraints.Violation, error) {
		t.Fatal("recomputed")
		return nil, nil
	})
	if !hit || v == nil || len(v) != 0 {
		t.Fatalf("empty violations came back as %#v (hit=%v)", v, hit)
	}
}

// Satellite regression: a waiter whose context dies while a slow
// leader computes must return promptly — not block until the leader
// finishes.
func TestDoWaiterReturnsPromptlyOnCancel(t *testing.T) {
	c := New(8)
	key := Key("slow")
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key, func() ([]constraints.Violation, error) {
			close(leaderStarted)
			<-release // leader stays busy until the test is done asserting
			return nil, nil
		})
	}()
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key, func() ([]constraints.Violation, error) {
			t.Error("waiter became a second leader")
			return nil, nil
		})
		waiterDone <- err
	}()
	// Give the waiter time to join the flight, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked on the leader")
	}
	close(release)

	// A pre-cancelled caller never joins (or leads) at all.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := c.Do(dead, Key("other"), func() ([]constraints.Violation, error) {
		t.Error("pre-cancelled caller computed")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Do returned %v", err)
	}
}

// TestEvictionVsDoRace hammers small caches with more keys than they
// hold, so insertions race evictions and in-flight Do calls; under
// -race this flushes out lock-ordering and shared-slice bugs. A third
// of the lookups go to a few shared hot keys, which reach the main
// queue; the rest ask each worker's new cold keys, which enter the
// small queue, and ask them again two lookups later, from the small
// queue, from the ghost or after both forgot them. At capacities 2 and
// 10 both queues churn.
func TestEvictionVsDoRace(t *testing.T) {
	want := func(k string) []constraints.Violation {
		return [][]constraints.Violation{sampleViolations()[:1], sampleViolations(), nil}[k[0]%3]
	}
	for _, capacity := range []int{1, 2, 10} {
		c := New(capacity)
		hot := max(1, capacity/2)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					k := Key("cold", fmt.Sprint(w, i))
					switch i % 3 {
					case 0:
						k = Key("hot", fmt.Sprint((w+i)%hot))
					case 1:
						k = Key("cold", fmt.Sprint(w, i-2))
					}
					v, _, err := c.Do(context.Background(), k, func() ([]constraints.Violation, error) {
						return copyViolations(want(k)), nil
					})
					if err != nil {
						t.Errorf("Do(%s) err: %v", k, err)
						return
					}
					if !violationsEqual(v, want(k)) {
						t.Errorf("Do(%s) returned another key's violations: %v", k, v)
						return
					}
					// Mutating the returned slice must never corrupt the
					// cached copy other goroutines receive.
					if len(v) > 0 {
						v[0].Message = "scribbled"
					}
				}
			}(w)
		}
		wg.Wait()
		st := c.Stats()
		if st.Entries != capacity {
			t.Errorf("capacity-%d cache holds %d entries", capacity, st.Entries)
		}
		if st.Evictions == 0 {
			t.Errorf("capacity %d: competing keys never evicted each other", capacity)
		}
	}
}

// record stands in for a caller's immutable cache value.
type record struct {
	text  string
	count int
}

// TestDoStoresAnyValue: the package-level Do caches a value of the
// caller's type, hands every hit the same value, and keeps the cache's
// counters, whatever the value type.
func TestDoStoresAnyValue(t *testing.T) {
	c := New(4)
	key := Sum(AppendPart(nil, "product"))
	calls := 0
	fn := func() (*record, error) {
		calls++
		return &record{text: "dts", count: 3}, nil
	}
	first, hit, err := Do(c, context.Background(), key, fn)
	if err != nil || hit {
		t.Fatalf("first Do: hit=%v err=%v", hit, err)
	}
	second, hit, err := Do(c, context.Background(), key, fn)
	if err != nil || !hit {
		t.Fatalf("second Do: hit=%v err=%v", hit, err)
	}
	if first != second || calls != 1 {
		t.Errorf("hit returned %p after %d computations, want the stored %p after 1", second, calls, first)
	}
	findings, _, err := Do(c, context.Background(), Sum(AppendPart(nil, "lifted")),
		func() ([]string, error) { return []string{"a", "b"}, nil })
	if err != nil || len(findings) != 2 {
		t.Fatalf("slice value: %v, %v", findings, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
	var nilCache *Cache
	if v, hit, _ := Do(nilCache, context.Background(), key, fn); hit || v == nil || calls != 2 {
		t.Errorf("nil cache: hit=%v v=%v calls=%d, want a fresh computation", hit, v, calls)
	}
}

// TestDoHitAllocs: a hit on a pointer value allocates nothing, so a
// caller's hit path costs only what it copies out of the value.
func TestDoHitAllocs(t *testing.T) {
	c := New(4)
	key := Sum(AppendPart(nil, "product"))
	rec := &record{text: "dts"}
	fn := func() (*record, error) { return rec, nil }
	if _, _, err := Do(c, context.Background(), key, fn); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if v, hit, _ := Do(c, ctx, key, fn); !hit || v != rec {
			t.Fatal("warm lookup missed")
		}
	}); allocs != 0 {
		t.Errorf("a warm hit allocates %.0f times, want 0", allocs)
	}
}

// TestDoMissAllocs: a steady-state miss that evicts allocates the entry,
// the flight and the flight's channel, and nothing more: the queues and
// the ghost are rings that stop growing once the cache is full, and a
// ghost insertion stores a digest, not an allocation.
func TestDoMissAllocs(t *testing.T) {
	for _, capacity := range []int{1, 10, 256} {
		c := New(capacity)
		rec := &record{text: "dts"}
		fn := func() (*record, error) { return rec, nil }
		ctx := context.Background()
		next := 0
		miss := func() {
			// Every key is new: each miss evicts a key from the small
			// queue, whose digest goes to the ghost and pushes its
			// oldest digest out.
			if _, hit, _ := Do(c, ctx, recordKey(next, 0), fn); hit {
				t.Fatal("a new key hit")
			}
			next++
		}
		for i := 0; i < 4*capacity+100; i++ {
			miss()
		}
		if allocs := testing.AllocsPerRun(1000, miss); allocs != 3 {
			t.Errorf("capacity %d: a miss that evicts allocates %.0f times, want 3 (entry, flight, channel)", capacity, allocs)
		}
		if st := c.Stats(); st.Entries != capacity || len(c.ghost) != capacity {
			t.Errorf("capacity %d: %d entries and %d ghost digests, want %d of each", capacity, st.Entries, len(c.ghost), capacity)
		}
	}
}
