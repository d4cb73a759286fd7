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
// The cache is a bounded LRU with hit/miss/eviction counters and
// single-flight de-duplication: when several goroutines ask for the
// same missing key concurrently (the parallel pipeline's platform and
// VM products, or identical simultaneous /check requests), exactly one
// computes and the rest wait for its result.
package checkcache

import (
	"container/list"
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
	key Digest
	val any
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{} // closed when the leader finishes
	val  any
	err  error
}

// Cache is a bounded LRU of check results, safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List               // front = most recent; values are *entry
	entries  map[Digest]*list.Element // key -> lru element
	inflight map[Digest]*flight

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
		lru:      list.New(),
		entries:  make(map[Digest]*list.Element),
		inflight: make(map[Digest]*flight),
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
		"Check-result cache LRU evictions.", &c.evictions)
	reg.Register("llhsc_checkcache_entries",
		"Resident check-result cache entries.", obs.FuncGauge(func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lru.Len())
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
		Entries:   c.lru.Len(),
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
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits.Inc()
			val := el.Value.(*entry).val
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

// insertLocked stores the leader's result, evicting least recently
// used entries to make room. key is never resident: Do makes a caller
// the leader only after finding no entry under the same lock hold that
// registers its flight, and its waiters never insert.
func (c *Cache) insertLocked(key Digest, val any) {
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions.Inc()
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, val: val})
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
