package constraints

import (
	"context"
	"fmt"
	"sort"
	"time"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
	"llhsc/internal/smt"
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
type SemanticChecker struct {
	// Width is the bit width used for address variables; 0 derives it
	// from the tree's root #address-cells.
	Width int
	// CheckMemoryBanks also checks banks of the same memory node
	// against each other (needed for the truncation scenario of E6).
	// Enabled by default via NewSemanticChecker.
	CheckMemoryBanks bool
	// OnQuery, when non-nil, receives one QueryRecord per pair decision,
	// with its wall time. The hook runs inline on the checking goroutine;
	// keep it cheap. Leaving it nil (the default) keeps the decision loop
	// on its zero-allocation path: not even a QueryRecord is built (see
	// alloc_test.go).
	OnQuery func(obs.QueryRecord)

	stats SemanticStats
}

// SemanticStats describes the work of the most recent
// FindCollisionsContext (or Check) call. A checker records stats for
// one goroutine at a time — build one checker per goroutine, as
// core.Pipeline does. The same shape doubles as the optional stats sink
// of InterruptChecker and MemReserveChecker, so the pipeline aggregates
// every family uniformly; the solver fields are filled only by those
// SMT-backed families.
type SemanticStats struct {
	// Pairs is the number of candidate pairs decided (for the interrupt
	// family: pair queries posed to the solver).
	Pairs int
	// PairsPruned is how many of the naive n·(n-1)/2 region pairs the
	// sweep prefilter and the eligibility rules cut before any decision.
	PairsPruned int
	// WordDecided is how many candidate pairs the word-level tier
	// (DESIGN.md §13) decided with plain interval arithmetic. For the
	// semantic family it always equals Pairs.
	WordDecided int
	// SolverCalls counts SMT check invocations (memreserve and
	// interrupt families; 0 for the semantic family).
	SolverCalls int
	// Collisions found.
	Collisions int
	// Solver aggregates the underlying SAT-solver work (conflicts,
	// propagations, restarts, ...) across every solver instance the
	// call created.
	Solver sat.Stats
	// InternHits / InternMisses aggregate the smt.Context hash-consing
	// counters across those same instances.
	InternHits   uint64
	InternMisses uint64
}

// absorb folds one solver's SAT and intern counters into the stats.
func (st *SemanticStats) absorb(solver *smt.Solver) {
	st.Solver = st.Solver.Add(solver.Stats().SAT)
	h, m := solver.Context().InternStats()
	st.InternHits += h
	st.InternMisses += m
}

// LastStats returns the work counters of the most recent collision
// search on this checker.
func (sc *SemanticChecker) LastStats() SemanticStats { return sc.stats }

// NewSemanticChecker returns a checker with the paper's defaults.
func NewSemanticChecker() *SemanticChecker {
	return &SemanticChecker{CheckMemoryBanks: true}
}

// Check collects the address regions of the tree and reports every
// pairwise collision. Region-decoding problems (arity, overflow) are
// reported as violations as well.
func (sc *SemanticChecker) Check(tree *dts.Tree) ([]Collision, []Violation) {
	collisions, violations, _ := sc.CheckContext(context.Background(), tree)
	return collisions, violations
}

// CheckContext is Check under a context. A non-nil error (a
// *sat.LimitError) means cancellation cut the search short;
// collisions and violations found up to that point are still returned.
func (sc *SemanticChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Collision, []Violation, error) {
	regions, err := addr.CollectRegions(tree)
	var violations []Violation
	if err != nil {
		violations = append(violations, Violation{
			Rule:    "semantic:regions",
			Message: err.Error(),
		})
	}
	width := sc.Width
	if width == 0 {
		width = addr.BitWidth(tree.Root.AddressCells())
	}
	collisions, cerr := sc.FindCollisionsContext(ctx, regions, width)
	for _, c := range collisions {
		violations = append(violations, c.Violations()...)
	}
	return collisions, violations, cerr
}

// candidatePairs enumerates the region pairs that must not overlap.
// Virtual-device windows (addr.KindVirtual) are IPC overlays onto
// shared RAM, so they are exempt from clashing with memory regions —
// the paper's own Listing 6 places the veth IPC base inside a guest
// memory region — but still must not clash with each other or with
// physical devices.
func (sc *SemanticChecker) candidatePairs(regions []addr.Region) [][2]int {
	var pairs [][2]int
	for i := 0; i < len(regions); i++ {
		for j := i + 1; j < len(regions); j++ {
			if sc.pairEligible(regions[i], regions[j]) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// pairEligible applies the exemption rules shared by the sweep, the
// one-shot AnyCollision query and the all-pairs schedule:
// same-node pairs are skipped unless they are distinct memory banks
// under CheckMemoryBanks, and virtual-device windows never clash with
// memory regions (see candidatePairs).
func (sc *SemanticChecker) pairEligible(a, b addr.Region) bool {
	return eligiblePair(a, b, sc.CheckMemoryBanks)
}

// eligiblePair is the package-level form of the eligibility rules,
// shared with the lifted checker so family-based and enumerative runs
// schedule exactly the same pairs.
func eligiblePair(a, b addr.Region, checkMemoryBanks bool) bool {
	if a.Path == b.Path {
		if !checkMemoryBanks {
			return false
		}
		if a.Index == b.Index {
			return false
		}
	}
	if a.Kind == addr.KindVirtual && b.Kind == addr.KindMemory ||
		a.Kind == addr.KindMemory && b.Kind == addr.KindVirtual {
		return false
	}
	return true
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
// returns the collisions confirmed so far plus a *sat.LimitError;
// remaining pairs are unchecked.
func (sc *SemanticChecker) FindCollisionsContext(ctx context.Context, regions []addr.Region, width int) ([]Collision, error) {
	sc.stats = SemanticStats{}
	out, err := sc.decidePairs(ctx, regions, width, sc.sweepCandidates(regions, width))
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

// decidePairs decides the given candidate pairs with the word tier.
// The context is polled once per pair, since no solver is there to
// poll it. With OnQuery nil the loop allocates only for collisions.
func (sc *SemanticChecker) decidePairs(ctx context.Context, regions []addr.Region, width int, pairs [][2]int) ([]Collision, error) {
	sc.stats.Pairs = len(pairs)
	var out []Collision
	for _, pair := range pairs {
		if err := ctx.Err(); err != nil {
			return out, &sat.LimitError{Reason: sat.StopCanceled, Err: err}
		}
		a, b := regions[pair[0]], regions[pair[1]]
		var t0 time.Time
		if sc.OnQuery != nil {
			t0 = time.Now()
		}
		overlap, w := DecideConcretePair(a, b, width)
		sc.stats.WordDecided++
		if overlap {
			out = append(out, Collision{A: a, B: b, Witness: w})
		}
		if sc.OnQuery != nil {
			sc.emitPair(a, b, overlap, w, time.Since(t0))
		}
	}
	return out, nil
}

// RegionLabel is the stable identity of one region in query records
// and reproducer bundles: node path plus reg-entry index. Replay
// matches re-run collisions against bundle queries by this label.
func RegionLabel(r addr.Region) string {
	return fmt.Sprintf("%s[%d]", r.Path, r.Index)
}

// emitPair builds and delivers one pair-decision record. Called only
// when OnQuery is non-nil, so the disabled path never reaches the
// formatting below.
func (sc *SemanticChecker) emitPair(a, b addr.Region, overlap bool, witness uint64, elapsed time.Duration) {
	q := obs.QueryRecord{
		Family:  "semantic",
		Tier:    "word",
		A:       RegionLabel(a),
		B:       RegionLabel(b),
		Verdict: "disjoint",
		Millis:  float64(elapsed) / float64(time.Millisecond),
	}
	if overlap {
		q.Verdict = "overlap"
		q.Witness = fmt.Sprintf("0x%x", witness)
	}
	sc.OnQuery(q)
}

func sortCollisions(out []Collision) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.Path != out[j].A.Path {
			return out[i].A.Path < out[j].A.Path
		}
		return out[i].B.Path < out[j].B.Path
	})
}

// AnyCollision poses a single disjunctive query — does ANY candidate
// pair overlap? This is the formulation closest to the paper's one-shot
// formula (7) and the workload used by the E8 scaling benchmark.
//
// A single witness variable x is shared by all disjuncts (only one
// colliding pair needs witnessing), so hash-consing reduces the
// encoding to two comparator chains per *region* plus one small
// selector clause per pair — O(n) bit-vector logic for O(n²) pairs.
func (sc *SemanticChecker) AnyCollision(regions []addr.Region, width int) (Collision, bool) {
	c, ok, _ := sc.AnyCollisionContext(context.Background(), regions, width)
	return c, ok
}

// AnyCollisionContext is AnyCollision under a context; a non-nil error
// means the single query was cut short and the answer is unknown.
func (sc *SemanticChecker) AnyCollisionContext(ctx context.Context, regions []addr.Region, width int) (Collision, bool, error) {
	pairs := sc.candidatePairs(regions)
	if len(pairs) == 0 {
		return Collision{}, false, nil
	}
	sctx := smt.NewContext()
	solver := smt.NewSolver(sctx)
	x := sctx.BVVar("x", width)

	inRegion := make([]*smt.Term, len(regions))
	for i, r := range regions {
		inRegion[i] = overlapTerm(sctx, x, r, width)
	}
	sel := make([]*smt.Term, len(pairs))
	for k, pair := range pairs {
		s := sctx.BoolVar(fmt.Sprintf("sel%d", k))
		sel[k] = s
		solver.Assert(sctx.Implies(s, sctx.And(inRegion[pair[0]], inRegion[pair[1]])))
	}
	solver.Assert(sctx.Or(sel...))
	st, err := solver.CheckContext(ctx)
	if err != nil {
		return Collision{}, false, err
	}
	if st != sat.Sat {
		return Collision{}, false, nil
	}
	for k, pair := range pairs {
		if solver.BoolValue(sel[k]) {
			return Collision{
				A: regions[pair[0]], B: regions[pair[1]],
				Witness: solver.BVValue(x),
			}, true, nil
		}
	}
	return Collision{}, false, nil
}

// overlapTerm encodes b <= x ∧ x < b + s at the given width. Regions
// whose bounds exceed the width are truncated modulo 2^width, matching
// the hardware's address decoding.
func overlapTerm(ctx *smt.Context, x *smt.Term, r addr.Region, width int) *smt.Term {
	if r.Size == 0 {
		return ctx.False()
	}
	base := ctx.BVConst(width, r.Base)
	end := r.Base + r.Size
	overflows := end < r.Base // 64-bit wrap
	if width < 64 && end >= 1<<uint(width) {
		overflows = true
	}
	if overflows {
		// The region extends to (or past) the top of the address
		// space: only the lower bound constrains x. Regions that
		// genuinely wrap are reported separately by addr.ErrOverflow.
		return ctx.Ule(base, x)
	}
	return ctx.And(ctx.Ule(base, x), ctx.Ult(x, ctx.BVConst(width, end)))
}

// InterruptChecker is the interrupt-uniqueness extension mentioned in
// the paper's conclusion ("semantic validation of memory addresses and
// interrupts is performed using bit-vector constraints"): no two device
// nodes may claim the same interrupt line.
type InterruptChecker struct {
	// Stats, when non-nil, receives the call's solver-work counters
	// (pair queries, SAT stats, intern hit rate). A pointer so the
	// checker stays usable as a value: InterruptChecker{Stats: &st}.
	Stats *SemanticStats
}

// Check reports devices sharing an interrupt number. The decision is
// made by the SMT solver: for each pair of interrupt constants it asks
// whether a shared line value exists (mirroring the overlap encoding).
func (ic InterruptChecker) Check(tree *dts.Tree) []Violation {
	out, _ := ic.CheckContext(context.Background(), tree)
	return out
}

// CheckContext is Check under a context; a non-nil error (a
// *sat.LimitError) means cancellation cut the pair enumeration short.
func (ic InterruptChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Violation, error) {
	type irqUse struct {
		path   string
		irq    uint32
		origin dts.Origin
	}
	var uses []irqUse
	tree.Root.Walk(func(path string, n *dts.Node) bool {
		p := n.Property("interrupts")
		if p == nil {
			return true
		}
		for _, cell := range p.Value.Cells() {
			uses = append(uses, irqUse{path: path, irq: cell.Val, origin: p.Origin})
		}
		return true
	})
	if len(uses) < 2 {
		return nil, nil
	}

	sctx := smt.NewContext()
	solver := smt.NewSolver(sctx)
	if ic.Stats != nil {
		defer func() { ic.Stats.absorb(solver) }()
	}
	line := sctx.BVVar("line", 32)

	var out []Violation
	for i := 0; i < len(uses); i++ {
		for j := i + 1; j < len(uses); j++ {
			if uses[i].path == uses[j].path {
				continue
			}
			solver.Push()
			solver.Assert(sctx.Eq(line, sctx.BVConst(32, uint64(uses[i].irq))))
			solver.Assert(sctx.Eq(line, sctx.BVConst(32, uint64(uses[j].irq))))
			st, err := solver.CheckContext(ctx)
			if ic.Stats != nil {
				ic.Stats.SolverCalls++
				ic.Stats.Pairs++
			}
			if st == sat.Sat {
				out = append(out, Violation{
					Path: uses[i].path, Property: "interrupts",
					Rule: "semantic:interrupt",
					Message: fmt.Sprintf("interrupt %d also claimed by %s",
						uses[i].irq, uses[j].path),
					Origin: uses[i].origin,
				})
			}
			solver.Pop()
			if err != nil {
				return out, err
			}
		}
	}
	return out, nil
}
