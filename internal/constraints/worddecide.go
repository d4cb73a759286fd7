package constraints

import "llhsc/internal/addr"

// This file is the word-level tier of the semantic checker (DESIGN.md
// §13): every candidate pair the sweep emits is decided with machine
// arithmetic, never with the bit-blaster. Verdicts and witnesses are
// byte-identical to the per-pair SMT query of Section IV-C — the
// witness is always the *least* shared address, which the bit-blasting
// test oracle reproduces by bitwise model minimization — so reports do
// not depend on how a pair was decided.

// DecideConcretePair decides formula (7) for two fully concrete regions
// with exact uint64 interval arithmetic — no solver, no allocation. The
// verdict is always conclusive and matches the SMT encoding exactly:
// regionInterval applies the same width-truncation rules overlapTerm
// compiles, so "the intervals share an address" and "the pair's
// bit-vector query is satisfiable" are the same predicate. On overlap,
// the witness is the least shared address max(lo_a, lo_b) — identical
// to what a minimizing witness query over overlapTerm returns.
func DecideConcretePair(a, b addr.Region, width int) (overlap bool, witness uint64) {
	ia, ok := regionInterval(a, width)
	if !ok {
		return false, 0
	}
	ib, ok := regionInterval(b, width)
	if !ok {
		return false, 0
	}
	if !intervalsOverlap(ia, ib) {
		return false, 0
	}
	lo := ia.lo
	if ib.lo > lo {
		lo = ib.lo
	}
	return true, lo
}
