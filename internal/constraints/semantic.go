package constraints

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
)

// Collision is a detected overlap between two address regions, with a
// witness address contained in both: the least shared address, i.e.
// the minimal model of the counterexample query of Section IV-C.
type Collision struct {
	A, B    addr.Region
	Witness uint64 // an address contained in both regions
}

func (c Collision) String() string {
	return fmt.Sprintf("%s collides with %s at address 0x%x", c.A, c.B, c.Witness)
}

// Violations converts collisions to the common violation format, with
// delta blame from both regions' origins.
func (c Collision) Violations() []Violation {
	msg := fmt.Sprintf("address region 0x%x+0x%x overlaps %s bank %d (0x%x+0x%x) at address 0x%x",
		c.A.Base, c.A.Size, c.B.Path, c.B.Index, c.B.Base, c.B.Size, c.Witness)
	v := []Violation{{
		Path: c.A.Path, Property: "reg", Rule: "semantic:overlap",
		Message: msg, Origin: c.A.Origin,
	}}
	if c.B.Origin.Delta != "" && c.B.Origin.Delta != c.A.Origin.Delta {
		v = append(v, Violation{
			Path: c.B.Path, Property: "reg", Rule: "semantic:overlap",
			Message: fmt.Sprintf("address region 0x%x+0x%x overlaps %s bank %d at address 0x%x",
				c.B.Base, c.B.Size, c.A.Path, c.A.Index, c.Witness),
			Origin: c.B.Origin,
		})
	}
	return v
}

// SemanticChecker verifies the memory-consistency property of Section
// IV-C: no two mutually exclusive address regions may overlap. The
// paper encodes each candidate pair (i, j) as the bit-vector
// satisfiability problem
//
//	b_i <= x ∧ x < b_i + s_i ∧ b_j <= x ∧ x < b_j + s_j
//
// over a fresh address variable x; a satisfiable query is a violation
// of formula (7) and the model value of x is the collision witness.
// Every region here is concrete, so the checker decides that query
// arithmetically (DecideConcretePair) with the least shared address as
// witness; the test suite's bit-blasting oracle holds it to the SMT
// encoding (overlapTerm) pair for pair.
//
// (The paper's formula (7) uses two bound variables x1 < x2; read
// literally that is satisfied by ANY two regions that are not a single
// shared point, so we implement the evident intent — a shared address —
// with a single witness variable. EXPERIMENTS.md E5 records this.)
//
// Addresses are as wide as the root #address-cells says, and distinct
// banks of one memory node are checked against each other (the
// truncation scenario of E6 needs it).
type SemanticChecker struct {
	stats SemanticStats
}

// SemanticStats describes the work of the most recent
// FindCollisionsContext (or Check) call. A checker records stats for
// one goroutine at a time — build one checker per goroutine, as
// core.Pipeline does. The same shape doubles as the optional stats sink
// of InterruptChecker and MemReserveChecker, so the pipeline aggregates
// every family uniformly.
type SemanticStats struct {
	// Pairs is the number of candidate pairs decided (for the interrupt
	// family: claim pairs compared; for memreserve: reserve pairs).
	Pairs int
	// PairsPruned is how many of the naive n·(n-1)/2 region pairs the
	// sweep prefilter and the eligibility rules cut before any decision.
	PairsPruned int
	// WordDecided is how many decisions plain word arithmetic made
	// (DESIGN.md §13): region pairs for the semantic family, where it
	// always equals Pairs; claim pairs for interrupts; reserve
	// containments and reserve pairs for memreserve.
	WordDecided int
	// SolverCalls counts SMT check invocations. The families reporting
	// through SemanticStats build no solver, so it reads 0; it is kept
	// as the observable proof, which the benchmark reads.
	SolverCalls int
	// Collisions found.
	Collisions int
}

// LastStats returns the work counters of the most recent collision
// search on this checker.
func (sc *SemanticChecker) LastStats() SemanticStats { return sc.stats }

// NewSemanticChecker returns a checker.
func NewSemanticChecker() *SemanticChecker {
	return &SemanticChecker{}
}

// Check collects the address regions of the tree and reports every
// pairwise collision. Each region-decoding problem (arity, overflow,
// uncovered address) is reported as a violation as well, in walk order.
func (sc *SemanticChecker) Check(tree *dts.Tree) ([]Collision, []Violation) {
	collisions, violations, _ := sc.CheckContext(context.Background(), tree)
	return collisions, violations
}

// CheckContext is Check under a context. A non-nil error (ctx.Err())
// means cancellation cut the search short;
// collisions and violations found up to that point are still returned.
func (sc *SemanticChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Collision, []Violation, error) {
	return sc.check(ctx, &TreeFacts{Tree: tree})
}

// check is the semantic family over one tree's facts: the regions'
// decoding problems, then the collisions between them.
func (sc *SemanticChecker) check(ctx context.Context, t *TreeFacts) ([]Collision, []Violation, error) {
	regions, err := t.Regions()
	var violations []Violation
	if err != nil { // errors.Join of every decoding problem
		for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
			violations = append(violations, regionsViolation(e))
		}
	}
	collisions, cerr := sc.FindCollisionsContext(ctx, regions, addr.BitWidth(t.Tree.Root.AddressCells()))
	for _, c := range collisions {
		violations = append(violations, c.Violations()...)
	}
	return collisions, violations, cerr
}

// regionsViolation reports a region-decoding problem (addr.DecodeReg,
// addr.Translator.Through) at the offending node's path, in both
// checking modes.
func regionsViolation(err error) Violation {
	var de *addr.DecodeError
	if errors.As(err, &de) {
		return Violation{Path: de.Path, Rule: "semantic:regions", Message: de.Err.Error()}
	}
	return Violation{Rule: "semantic:regions", Message: err.Error()}
}

// pairEligible applies the exemption rules shared by the sweep (and
// through it the lifted checker) and the all-pairs test oracle:
// same-node pairs are skipped unless they are distinct memory banks,
// and virtual-device windows (addr.KindVirtual)
// never clash with memory regions. Those windows are IPC overlays onto
// shared RAM — the paper's own Listing 6 places the veth IPC base
// inside a guest memory region — but they still must not clash with
// each other or with physical devices.
func (sc *SemanticChecker) pairEligible(a, b addr.Region) bool {
	if a.Path == b.Path && a.Index == b.Index {
		return false
	}
	return !(a.Kind == addr.KindVirtual && b.Kind == addr.KindMemory ||
		a.Kind == addr.KindMemory && b.Kind == addr.KindVirtual)
}

// FindCollisions returns every collision between eligible regions,
// sorted by region path for determinism.
func (sc *SemanticChecker) FindCollisions(regions []addr.Region, width int) []Collision {
	out, _ := sc.FindCollisionsContext(context.Background(), regions, width)
	return out
}

// FindCollisionsContext is FindCollisions under a context. It runs in
// two steps (DESIGN.md §9): the sweep-line prefilter computes the exact
// set of eligible pairs whose intervals overlap, then the word tier
// (DecideConcretePair) decides each candidate and computes its witness
// arithmetically. No solver is built. When the context is canceled it
// returns the collisions confirmed so far plus ctx.Err();
// remaining pairs are unchecked.
func (sc *SemanticChecker) FindCollisionsContext(ctx context.Context, regions []addr.Region, width int) ([]Collision, error) {
	sc.stats = SemanticStats{}
	var out []Collision
	err := sc.decidePairs(ctx, regions, width, sc.sweepCandidates(regions, width),
		func(_ [2]int, c Collision) { out = append(out, c) })
	sc.stats.Collisions = len(out)
	// Pruning payoff relative to the naive all-pairs schedule the
	// paper's formulation implies. Counting the eligible-only baseline
	// would cost the O(n²) pass the sweep exists to avoid.
	if naive := len(regions) * (len(regions) - 1) / 2; naive > sc.stats.Pairs {
		sc.stats.PairsPruned = naive - sc.stats.Pairs
	}
	sortCollisions(out)
	return out, err
}

// decidePairs decides the given candidate pairs with the word tier and
// hands each collision to hit, in pair order. It is the decision step
// of both checking modes: the lifted checker runs it over each
// root-width group of guarded regions. The context is polled once per
// pair, since no solver is there to poll it. The loop itself allocates
// nothing.
func (sc *SemanticChecker) decidePairs(ctx context.Context, regions []addr.Region, width int, pairs [][2]int, hit func(pair [2]int, c Collision)) error {
	sc.stats.Pairs += len(pairs)
	for _, pair := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, b := regions[pair[0]], regions[pair[1]]
		overlap, w := DecideConcretePair(a, b, width)
		sc.stats.WordDecided++
		if overlap {
			hit(pair, Collision{A: a, B: b, Witness: w})
		}
	}
	return nil
}

func sortCollisions(out []Collision) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.Path != out[j].A.Path {
			return out[i].A.Path < out[j].A.Path
		}
		return out[i].B.Path < out[j].B.Path
	})
}
