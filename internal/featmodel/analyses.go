package featmodel

import (
	"fmt"
	"sort"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// Analyzer runs the automated analyses of Section II-B over a model
// using the CDCL solver. Create one per model; the underlying solver is
// reused incrementally across queries.
type Analyzer struct {
	model  *Model
	enc    *Encoding
	solver *sat.Solver
}

// NewAnalyzer seeds a solver with the model's Encoding. The model must
// be well-formed (built via NewModel); NewAnalyzer panics otherwise.
func NewAnalyzer(m *Model) *Analyzer {
	enc := m.mustEncoding()
	return &Analyzer{model: m, enc: enc, solver: enc.newSolver()}
}

// IsVoid reports whether the model admits no products at all.
func (a *Analyzer) IsVoid() bool {
	return a.solver.Solve() != sat.Sat
}

// DeadFeatures returns features that appear in no valid product.
func (a *Analyzer) DeadFeatures() []string {
	var out []string
	for i, name := range a.model.order {
		if a.solver.Solve(logic.Lit(i+1)) != sat.Sat {
			out = append(out, name)
		}
	}
	return out
}

// CoreFeatures returns features present in every valid product.
func (a *Analyzer) CoreFeatures() []string {
	var out []string
	for i, name := range a.model.order {
		if a.solver.Solve(-logic.Lit(i+1)) != sat.Sat {
			out = append(out, name)
		}
	}
	return out
}

// CountProducts counts the valid products of the model (distinct
// assignments to all features) by iterating models with blocking
// clauses. limit bounds the count (0 = unlimited); if the limit is hit,
// the second result is false.
//
// Counting mutates the analyzer's solver with blocking clauses, so a
// fresh Analyzer should be used afterwards for other queries; to keep
// the API safe, CountProducts operates on a private solver instance.
func (a *Analyzer) CountProducts(limit int) (int, bool) {
	products, complete := a.enumerate(limit)
	return len(products), complete
}

// EnumerateProducts returns up to limit valid products (0 = all),
// each as a sorted list of selected feature names. The second result
// reports whether the enumeration is complete.
func (a *Analyzer) EnumerateProducts(limit int) ([][]string, bool) {
	products, complete := a.enumerate(limit)
	sort.Slice(products, func(i, j int) bool {
		return fmt.Sprint(products[i]) < fmt.Sprint(products[j])
	})
	return products, complete
}

func (a *Analyzer) enumerate(limit int) ([][]string, bool) {
	s := a.enc.newSolver()
	var products [][]string
	for {
		if limit > 0 && len(products) >= limit {
			return products, false
		}
		if s.Solve() != sat.Sat {
			return products, true
		}
		var selected []string
		blocking := make([]logic.Lit, 0, len(a.model.order))
		for i, name := range a.model.order {
			l := logic.Lit(i + 1)
			if s.Value(l.Var()) {
				selected = append(selected, name)
				l = -l
			}
			blocking = append(blocking, l)
		}
		sort.Strings(selected)
		products = append(products, selected)
		if !s.AddClause(blocking...) {
			return products, true
		}
	}
}
