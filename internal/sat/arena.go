package sat

// clauseArena allocates clause headers and their literal storage from
// chunked slabs, replacing the two heap allocations every AddClause and
// every learnt clause used to cost (&clause{...} plus its lits copy)
// with amortized slab appends. This is the per-request arena of the
// zero-allocation hot path (ROADMAP item 3): solvers are created per
// pipeline request, so the arena's lifetime is the request's — there is
// no free list, and clauses deleted by reduceDB simply stay in their
// slab until the solver is dropped.
//
// Chunks and slabs grow geometrically, from firstChunkSize headers and
// firstSlabSize literals up to clauseChunkSize and litSlabSize, so a
// session of a few dozen clauses (a lifted check's) pays for a few
// hundred bytes rather than for the 26 KB of full-size slabs a large
// instance amortizes.
//
// Pointer stability: headers live in fixed-capacity chunks that are
// never reallocated once handed out, so *clause values remain valid as
// the database grows. Literal storage is carved from append-only slabs
// with a full-slice-expression cap, so a clause's lits can never grow
// into its neighbour's.
type clauseArena struct {
	headers [][]clause
	lits    []ilit // current literal slab; full slabs stay referenced by clauses
}

const (
	firstChunkSize  = 16
	clauseChunkSize = 256
	firstSlabSize   = 64
	litSlabSize     = 4096
)

// newClause returns a stable *clause holding a copy of lits.
func (a *clauseArena) newClause(lits []ilit, learnt bool, act float64) *clause {
	n := len(a.headers)
	if n == 0 || len(a.headers[n-1]) == cap(a.headers[n-1]) {
		size := firstChunkSize
		if n > 0 {
			size = min(2*cap(a.headers[n-1]), clauseChunkSize)
		}
		a.headers = append(a.headers, make([]clause, 0, size))
		n++
	}
	chunk := &a.headers[n-1]
	*chunk = append(*chunk, clause{lits: a.copyLits(lits), learnt: learnt, act: act})
	return &(*chunk)[len(*chunk)-1]
}

func (a *clauseArena) copyLits(lits []ilit) []ilit {
	if len(lits) > litSlabSize/2 {
		// An oversized clause gets its own allocation rather than
		// wasting most of a slab.
		return append([]ilit(nil), lits...)
	}
	if cap(a.lits)-len(a.lits) < len(lits) {
		size := max(firstSlabSize, min(2*cap(a.lits), litSlabSize))
		for size < len(lits) {
			size *= 2 // stays within litSlabSize: len(lits) <= litSlabSize/2
		}
		a.lits = make([]ilit, 0, size)
	}
	start := len(a.lits)
	a.lits = append(a.lits, lits...)
	return a.lits[start:len(a.lits):len(a.lits)]
}
