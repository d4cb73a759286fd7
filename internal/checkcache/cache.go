// Package checkcache provides a content-addressed cache for check
// results. The llhsc workflow derives and checks one product per VM plus
// the platform union, and products frequently coincide: the platform
// product of a single-VM line is the VM product, sibling VMs that
// select the same features derive the same product, and a deployment
// sees the same request body many times over. A product is a pure
// function of what derives it — the parsed front end, the completed
// configuration, the schema set and the verdict-changing knobs — so
// keying its record by a digest of those turns each repeat into a map
// lookup instead of a derivation and a round of checking.
//
// The cache stores any immutable value under a Digest (Do); callers
// that share a key must store one value type under it. (*Cache).Do and
// Key are the violation-list form of the same cache, keyed by a hex
// string.
//
// The cache is bounded, with hit/miss/eviction counters and
// single-flight de-duplication: when several goroutines ask for the
// same missing key concurrently (the parallel pipeline's platform and
// VM products, or identical simultaneous /check requests), exactly one
// computes and the rest wait for its result.
//
// Eviction is S3-FIFO (Yang et al., "FIFO queues are all you need for
// cache eviction", SOSP 2023). A new key enters a small FIFO holding a
// tenth of the capacity; one not hit again before it reaches the
// small queue's tail leaves, and its digest goes to a ghost FIFO. A key
// hit while in the small queue, or asked for again while its digest is
// in the ghost, joins the main FIFO, which re-queues an entry instead
// of evicting it while its 2-bit hit counter is non-zero (taking one
// off the counter each time). A hit only bumps the counter, so a Zipf
// stream's one-time tail passes through the small queue without
// pushing its popular keys out, as it would under LRU.
package checkcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"time"
	"unsafe"

	"llhsc/internal/constraints"
	"llhsc/internal/obs"
)

// A Digest is a cache key: the sha256 of a list of length-delimited
// parts.
type Digest [sha256.Size]byte

// Key derives a hex cache key from the parts that determine a check
// verdict. Parts are length-delimited before hashing, so no two
// distinct part lists collide by concatenation. Parts (a printed tree,
// say) are hashed in place, not copied into a []byte first.
func Key(parts ...string) string {
	k := NewHasher()
	for _, p := range parts {
		k.Part(p)
	}
	return k.Sum()
}

// AppendPart appends s to b framed as one length-delimited part, as
// Key and Hasher frame it, so a caller can build a key in a buffer of
// its own and digest it with Sum without allocating.
func AppendPart(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// Sum returns the digest of parts framed by AppendPart.
func Sum(b []byte) Digest { return sha256.Sum256(b) }

// A Hasher builds a key part by part, as Key does.
type Hasher struct {
	h      hash.Hash
	length [8]byte // a part's length prefix
}

// NewHasher returns a Hasher holding no parts.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Part adds s as the next length-delimited part.
func (k *Hasher) Part(s string) {
	binary.LittleEndian.PutUint64(k.length[:], uint64(len(s)))
	k.h.Write(k.length[:])
	k.h.Write(unsafe.Slice(unsafe.StringData(s), len(s))) // Write neither keeps nor edits s
}

// Digest returns the digest of the parts added so far.
func (k *Hasher) Digest() Digest {
	var d Digest
	k.h.Sum(d[:0])
	return d
}

// Sum returns the key of the parts added so far, in hex.
func (k *Hasher) Sum() string {
	d := k.Digest()
	return hex.EncodeToString(d[:])
}

// Stats is a snapshot of the cache counters. All fields come from one
// locked read, so Hits, Misses and the derived HitRate are always
// mutually consistent — a concurrent reader can never observe a hit
// count from one lookup generation paired with a miss count from
// another (no torn reads; the /healthz endpoint serializes exactly this
// snapshot).
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	// HitRate is Hits / (Hits + Misses), 0 before the first lookup.
	HitRate float64 `json:"hit_rate"`
}

type entry struct {
	key  Digest
	val  any
	freq uint8 // 2-bit hit counter: a hit adds one, up to 3; main's re-queue takes one; the move to main clears it
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{} // closed when the leader finishes
	val  any
	err  error
}

// Cache is a bounded S3-FIFO cache of check results, safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	smallCap int               // the small queue's share: capacity/10, at least 1
	entries  map[Digest]*entry // every resident entry, in small or main
	small    ring[*entry]      // new keys, oldest first
	main     ring[*entry]      // keys hit again, oldest first
	inflight map[Digest]*flight

	// ghost holds the digests of the last capacity keys evicted from
	// the small queue, oldest first in ghostQ. ghost[d] is d's push
	// number, so a digest that left and re-entered the ghost is dropped
	// only when its latest push leaves ghostQ.
	ghost    map[Digest]uint64
	ghostQ   ring[Digest]
	ghostSeq uint64 // pushes to ghostQ so far

	// The counters are obs metrics so the same instances can back both
	// the consistent Stats() snapshot (incremented and read under mu)
	// and, via RegisterMetrics, the /metrics exposition — one source of
	// truth for /healthz and the Prometheus scrape.
	hits, misses, evictions obs.Counter

	// lookupSeconds, set by RegisterMetrics, exposes per-tier lookup
	// latency distributions (memory hit, single-flight join, full
	// compute). Nil on an unregistered cache: the lookup path then
	// pays one nil check and never reads a clock.
	lookupSeconds *obs.HistogramVec
}

// New returns a cache holding at most capacity results. capacity <= 0
// returns nil, which every method treats as a disabled cache.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		smallCap: max(1, capacity/10),
		entries:  make(map[Digest]*entry),
		inflight: make(map[Digest]*flight),
		ghost:    make(map[Digest]uint64),
	}
}

// RegisterMetrics exposes the cache's counters on reg under the
// llhsc_checkcache_* families. The registered metrics are the same
// instances Stats() reads — /healthz and /metrics can never disagree.
// Entry count, capacity and hit rate are computed at scrape time under
// the cache lock. Safe (a no-op) on a nil cache.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.Register("llhsc_checkcache_hits_total",
		"Check-result cache hits (including single-flight joins).", &c.hits)
	reg.Register("llhsc_checkcache_misses_total",
		"Check-result cache misses.", &c.misses)
	reg.Register("llhsc_checkcache_evictions_total",
		"Check-result cache evictions (S3-FIFO: from the small or the main queue).", &c.evictions)
	reg.Register("llhsc_checkcache_entries",
		"Resident check-result cache entries.", obs.FuncGauge(func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.small.n + c.main.n)
		}))
	reg.Register("llhsc_checkcache_capacity",
		"Configured check-result cache capacity.", obs.FuncGauge(func() float64 {
			return float64(c.capacity)
		}))
	reg.Register("llhsc_checkcache_hit_rate",
		"Hits / lookups since start; 0 before the first lookup.", obs.FuncGauge(func() float64 {
			st := c.Stats()
			return st.HitRate
		}))
	c.lookupSeconds = reg.NewHistogramVec("llhsc_checkcache_lookup_seconds",
		"Cache lookup latency by serving tier: memory hit, single-flight join, or full compute.",
		nil, "tier")
}

// observeLookup records one successful lookup's latency under its
// serving tier. No-op until RegisterMetrics installs the histogram.
func (c *Cache) observeLookup(tier string, t0 time.Time) {
	if c.lookupSeconds == nil {
		return
	}
	c.lookupSeconds.With(tier).Observe(time.Since(t0).Seconds())
}

// Stats returns a snapshot of the counters. Safe on a nil cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Entries:   c.small.n + c.main.n,
		Capacity:  c.capacity,
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// Do returns the value cached under key, or computes it with fn.
// Concurrent calls for the same missing key run fn once (single
// flight); the others block until the leader finishes or their own ctx
// is done. A fn error is returned to the leader and every waiter but
// is never cached — limit stops are transient, so the next request
// retries. hit reports whether the result came from the cache (waiters
// joining an in-progress computation count as hits: they triggered no
// work of their own).
//
// The value is shared by every caller that hits it, so it must be
// immutable once fn returns it; a pointer V boxes without allocating.
// Every caller of one key must store the same V. On a nil cache Do
// degenerates to calling fn directly.
func Do[V any](c *Cache, ctx context.Context, key Digest, fn func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err := fn()
		return v, false, err
	}
	var t0 time.Time
	if c.lookupSeconds != nil {
		t0 = time.Now()
	}
	for {
		// A caller whose deadline already passed must not become a
		// leader (it would compute a result nobody can use) or re-join
		// the waiter queue.
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.freq < 3 {
				e.freq++
			}
			c.hits.Inc()
			val := e.val
			c.mu.Unlock()
			c.observeLookup("memory", t0)
			return val.(V), true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			if f.err == nil {
				c.mu.Lock()
				c.hits.Inc()
				c.mu.Unlock()
				c.observeLookup("join", t0)
				return f.val.(V), true, nil
			}
			// The leader failed (budget, cancellation). If this
			// waiter is still live it retries — its own budget may
			// suffice where the leader's did not.
			if ctx.Err() != nil {
				return v, false, ctx.Err()
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.misses.Inc()
		c.mu.Unlock()

		v, err = fn()
		if err == nil {
			f.val = v
		}
		f.err = err
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		if err == nil {
			c.observeLookup("compute", t0)
		}
		return v, false, err
	}
}

// Do is the violation-list form of the package-level Do, keyed by a
// string such as Key returns. Each caller gets its own copy of the
// violations, so appending to or editing them never reaches the cache.
func (c *Cache) Do(ctx context.Context, key string, fn func() ([]constraints.Violation, error)) (violations []constraints.Violation, hit bool, err error) {
	v, hit, err := Do(c, ctx, sha256.Sum256(unsafe.Slice(unsafe.StringData(key), len(key))),
		func() ([]constraints.Violation, error) {
			v, err := fn()
			return copyViolations(v), err
		})
	return copyViolations(v), hit, err
}

// insertLocked stores the leader's result, evicting entries to make
// room. A key whose digest is in the ghost goes straight to the main
// queue; any other key goes to the small one. key is never resident: Do
// makes a caller the leader only after finding no entry under the same
// lock hold that registers its flight, and its waiters never insert.
func (c *Cache) insertLocked(key Digest, val any) {
	for c.small.n+c.main.n >= c.capacity {
		c.evictLocked()
	}
	e := &entry{key: key, val: val}
	c.entries[key] = e
	if _, ok := c.ghost[key]; ok {
		delete(c.ghost, key)
		c.main.push(e)
		return
	}
	c.small.push(e)
}

// evictLocked evicts one entry. It takes the small queue's oldest while
// that queue holds its share (or main is empty), moving it to main
// instead if it was hit; otherwise it takes main's oldest, re-queueing
// it instead while its counter is non-zero. Each pass either evicts,
// shortens the small queue or lowers a counter, so the loop ends.
func (c *Cache) evictLocked() {
	for {
		if c.small.n >= c.smallCap || c.main.n == 0 {
			e := c.small.pop()
			if e.freq > 0 {
				e.freq = 0
				c.main.push(e)
				continue
			}
			delete(c.entries, e.key)
			c.ghostPushLocked(e.key)
		} else {
			e := c.main.pop()
			if e.freq > 0 {
				e.freq--
				c.main.push(e)
				continue
			}
			delete(c.entries, e.key)
		}
		c.evictions.Inc()
		return
	}
}

// ghostPushLocked remembers d as evicted from the small queue,
// forgetting the oldest digest once the ghost holds capacity of them.
func (c *Cache) ghostPushLocked(d Digest) {
	if c.ghostQ.n == c.capacity {
		seq := c.ghostSeq - uint64(c.ghostQ.n)
		if old := c.ghostQ.pop(); c.ghost[old] == seq {
			delete(c.ghost, old)
		}
	}
	c.ghost[d] = c.ghostSeq
	c.ghostQ.push(d)
	c.ghostSeq++
}

// A ring is a FIFO queue in a slice that doubles when full, so a cache
// holds slots for what it has queued, not for its capacity.
type ring[T any] struct {
	buf  []T
	head int // buf[head] is the oldest of the n queued values
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// pop removes and returns the oldest value; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the ring's reference to an evicted value
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// copyViolations guards the cached slice against caller appends. It
// preserves the nil/empty distinction: "checked, zero violations"
// (empty) and "nothing to report" (nil) round-trip as themselves.
func copyViolations(v []constraints.Violation) []constraints.Violation {
	if v == nil {
		return nil
	}
	out := make([]constraints.Violation, len(v))
	copy(out, v)
	return out
}
