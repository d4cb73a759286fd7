package constraints

import (
	"context"

	"llhsc/internal/addr"
	"llhsc/internal/dts"
	"llhsc/internal/schema"
)

// TreeFacts is what the per-tree families read of one tree: the tree
// and its address regions with their decoding error. The regions are
// collected (addr.CollectRegions) on the first Regions call and then
// shared by the semantic and memreserve families and the caller's
// artifact extraction (baogen.FactsFromRegions). A TreeFacts belongs to
// one goroutine, and its tree must not change while it is in use.
type TreeFacts struct {
	Tree *dts.Tree

	collected  bool
	regions    []addr.Region
	regionsErr error
}

// Regions returns the tree's regions in walk order and every decoding
// problem joined by errors.Join. Callers must not modify the slice.
func (t *TreeFacts) Regions() ([]addr.Region, error) {
	if !t.collected {
		t.regions, t.regionsErr = addr.CollectRegions(t.Tree)
		t.collected = true
	}
	return t.regions, t.regionsErr
}

// Family is one per-tree checker family. Name labels its
// "family:<Name>" span, its RunStats.Families key and its
// llhsc_check_seconds family label. Check returns the family's
// violations and work counters; a non-nil error (ctx.Err()) means
// cancellation cut it short, and the violations found so far are still
// returned. Only the syntactic family reads schemas.
type Family struct {
	Name  string
	Check func(ctx context.Context, schemas *schema.Set, t *TreeFacts) ([]Violation, SemanticStats, error)
}

// Families lists the per-tree checker families in report order, the
// order of a product's violations in a /check reply. It is the one
// place that names them.
var Families = [...]Family{
	{"syntactic", checkSyntactic},
	{"semantic", checkSemantic},
	{"memreserve", checkMemReserve},
	{"interrupt", checkInterrupt},
}

// SemanticFamilies is Families without the syntactic family: the checks
// /lint and dtcc lint -semantic add to their dt-schema baseline.
var SemanticFamilies = Families[1:]

// CheckFamilies runs families over t one after another and merges
// their violations in order. It stops at the first family that fails.
func CheckFamilies(ctx context.Context, families []Family, schemas *schema.Set, t *TreeFacts) ([]Violation, error) {
	var out []Violation
	for _, f := range families {
		vs, _, err := f.Check(ctx, schemas, t)
		out = append(out, vs...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func checkSyntactic(ctx context.Context, schemas *schema.Set, t *TreeFacts) ([]Violation, SemanticStats, error) {
	vs, err := NewSyntacticChecker(schemas).CheckContext(ctx, t.Tree)
	return vs, SemanticStats{}, err
}

func checkSemantic(ctx context.Context, _ *schema.Set, t *TreeFacts) ([]Violation, SemanticStats, error) {
	var sc SemanticChecker
	_, vs, err := sc.check(ctx, t)
	return vs, sc.stats, err
}

// addCounts adds the pair counters of st to *dst, if dst is non-nil:
// the Stats sink of MemReserveChecker and InterruptChecker.
func (st SemanticStats) addCounts(dst *SemanticStats) {
	if dst != nil {
		dst.Pairs += st.Pairs
		dst.WordDecided += st.WordDecided
	}
}
