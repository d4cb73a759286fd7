package checkcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
)

// lruOracle is the least-recently-used policy the cache had before
// S3-FIFO, kept to score the traces below against.
type lruOracle struct {
	capacity int
	order    *list.List // front = most recent; values are Digests
	at       map[Digest]*list.Element
}

func newLRUOracle(capacity int) *lruOracle {
	return &lruOracle{capacity: capacity, order: list.New(), at: make(map[Digest]*list.Element)}
}

// get reports whether key is resident, inserting it (and evicting the
// least recently used key if full) when it is not.
func (l *lruOracle) get(key Digest) bool {
	if el, ok := l.at[key]; ok {
		l.order.MoveToFront(el)
		return true
	}
	if l.order.Len() >= l.capacity {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.at, oldest.Value.(Digest))
	}
	l.at[key] = l.order.PushFront(key)
	return false
}

// recordKey is the digest of record j of body b: a stand-in for the
// keys one /check request looks up (a product per VM plus the platform).
func recordKey(b, j int) Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[:], uint64(b))
	d[8] = byte(j)
	return d
}

const recordsPerBody = 9

// A trace is a seeded sequence of request bodies; each request looks up
// recordsPerBody records of its body.
type trace struct {
	name   string
	bodies []int
}

// policyTraces returns the traces TestS3FIFOAgainstLRU scores:
//   - zipf: Zipf(1.1) over 1,000 bodies, as a popular-body workload;
//   - shift: the same, but every body is new after each 2,000 requests,
//     as when a CI job re-checks a line after each commit;
//   - uniform: every one of 128 bodies equally likely, where no policy
//     can tell keys apart and a hit ratio near capacity/1,152 is all
//     there is to have.
func policyTraces() []trace {
	const nBodies, nReqs, epoch = 1000, 20000, 2000
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, nBodies-1)
	var z, s, u []int
	for i := 0; i < nReqs; i++ {
		z = append(z, int(zipf.Uint64()))
	}
	for i := 0; i < nReqs; i++ {
		s = append(s, i/epoch*nBodies+int(zipf.Uint64()))
	}
	for i := 0; i < nReqs; i++ {
		u = append(u, r.Intn(128))
	}
	return []trace{{"zipf", z}, {"shift", s}, {"uniform", u}}
}

// hitRatios plays tr through a cache and the LRU oracle of the same
// capacity and returns each one's hits per lookup.
func hitRatios(t *testing.T, tr trace, capacity int) (s3fifo, lru float64) {
	c := New(capacity)
	oracle := newLRUOracle(capacity)
	ctx := context.Background()
	var hits, oracleHits int
	for _, b := range tr.bodies {
		for j := 0; j < recordsPerBody; j++ {
			key := recordKey(b, j)
			_, hit, err := Do(c, ctx, key, func() (*record, error) { return &record{count: b}, nil })
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				hits++
			}
			if oracle.get(key) {
				oracleHits++
			}
		}
	}
	lookups := float64(len(tr.bodies) * recordsPerBody)
	if st := c.Stats(); st.Hits != uint64(hits) || st.Entries > capacity {
		t.Fatalf("%s at %d: stats %+v after %d hits", tr.name, capacity, st, hits)
	}
	return float64(hits) / lookups, float64(oracleHits) / lookups
}

// TestS3FIFOAgainstLRU scores the cache against the LRU oracle on
// seeded traces: nowhere more than 1 point below it, and on Zipf at the
// server's default capacity of 256 at least 5 points above it.
func TestS3FIFOAgainstLRU(t *testing.T) {
	for _, tr := range policyTraces() {
		for _, capacity := range []int{64, 256, 1024} {
			s3, lru := hitRatios(t, tr, capacity)
			t.Logf("%-7s capacity %4d: S3-FIFO %.3f, LRU %.3f", tr.name, capacity, s3, lru)
			if s3 < lru-0.01 {
				t.Errorf("%s at capacity %d: S3-FIFO hits %.3f, more than 1 point below LRU's %.3f",
					tr.name, capacity, s3, lru)
			}
			if tr.name == "zipf" && capacity == 256 && s3 < lru+0.05 {
				t.Errorf("zipf at capacity 256: S3-FIFO hits %.3f, under 5 points above LRU's %.3f", s3, lru)
			}
		}
	}
}
