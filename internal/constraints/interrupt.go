package constraints

import (
	"context"
	"fmt"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/schema"
)

// InterruptChecker is the interrupt-uniqueness extension mentioned in
// the paper's conclusion ("semantic validation of memory addresses and
// interrupts is performed using bit-vector constraints"): no two device
// nodes may claim the same interrupt line. Every pair of claims is
// decided by plain equality of the two line numbers — the per-pair
// bit-vector query over two constants is exactly that — so no solver is
// built; the test suite's SMT oracle holds it to the encoding.
type InterruptChecker struct {
	// Stats, when non-nil, receives the call's work counters (pairs
	// compared). A pointer so the checker stays usable as a value:
	// InterruptChecker{Stats: &st}.
	Stats *SemanticStats
}

// Check reports devices sharing an interrupt number.
func (ic InterruptChecker) Check(tree *dts.Tree) []Violation {
	out, _ := ic.CheckContext(context.Background(), tree)
	return out
}

// CheckContext is Check under a context, polled once per pair; a
// non-nil error (ctx.Err()) means cancellation cut the pair
// enumeration short, and the violations found so far are still
// returned.
func (ic InterruptChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Violation, error) {
	out, st, err := checkInterrupt(ctx, nil, &TreeFacts{Tree: tree})
	st.addCounts(ic.Stats)
	return out, err
}

// checkInterrupt is the interrupt family over one tree's facts: one
// claim per interrupts cell, compared pairwise.
func checkInterrupt(ctx context.Context, _ *schema.Set, t *TreeFacts) ([]Violation, SemanticStats, error) {
	var claims []irqClaim
	t.Tree.Root.Walk(func(path string, n *dts.Node) bool {
		if p := n.Property("interrupts"); p != nil {
			claims = appendIRQClaims(claims, path, &p.Value, 0, p.Origin)
		}
		return true
	})
	var out []Violation
	pairs, err := interruptRule(ctx, claims, collect(&out))
	return out, SemanticStats{Pairs: pairs, WordDecided: pairs}, err
}

// irqClaim is a guarded interrupt fact: the node at path claims line
// irq wherever cond holds.
type irqClaim struct {
	path   string
	irq    uint32
	cond   featmodel.Guard
	origin dts.Origin
}

// appendIRQClaims appends one claim per cell of an interrupts value:
// every cell counts as a line.
func appendIRQClaims(dst []irqClaim, path string, v *dts.Value, cond featmodel.Guard, origin dts.Origin) []irqClaim {
	for _, cell := range v.Cells() {
		dst = append(dst, irqClaim{path: path, irq: cell.Val, cond: cond, origin: origin})
	}
	return dst
}

// interruptRule is the interrupt-uniqueness rule of both checking
// modes: claims on distinct nodes must name distinct lines. Pairs are
// compared in (i, j) order, polling ctx once per pair, and each clash
// is reported under the conjunction of its claims' guards. It returns
// the number of pairs compared.
func interruptRule(ctx context.Context, claims []irqClaim, s sink) (int, error) {
	pairs := 0
	for i := range claims {
		for j := i + 1; j < len(claims); j++ {
			a, b := &claims[i], &claims[j]
			if a.path == b.path {
				continue
			}
			if err := ctx.Err(); err != nil {
				return pairs, err
			}
			pairs++
			if a.irq == b.irq {
				s.report(a.cond, b.cond, Violation{
					Path: a.path, Property: "interrupts",
					Rule:    "semantic:interrupt",
					Message: fmt.Sprintf("interrupt %d also claimed by %s", a.irq, b.path),
					Origin:  a.origin,
				})
			}
		}
	}
	return pairs, nil
}
