package featmodel

import (
	"context"
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
	var products [][]string
	// No ctx or budget can stop this enumeration, so it returns no error.
	complete, _, _ := a.enc.eachProduct(context.Background(), sat.Budget{}, limit, func(s *sat.Solver) {
		var selected []string
		for i, name := range a.enc.names {
			if s.Value(logic.Var(i + 1)) {
				selected = append(selected, name)
			}
		}
		sort.Strings(selected)
		products = append(products, selected)
	})
	return products, complete
}

// eachProduct enumerates the encoding's valid products with blocking
// clauses in one fresh solver, under ctx and b: each Sat solve finds a
// product that no earlier blocking clause excludes, yield reads it off
// the solver (feature Names()[i] is variable i+1), and the product's
// negation becomes the next blocking clause. It stops complete at the
// first Unsat, and incomplete before the solve past limit products
// when limit > 0. It returns the solver's work, and the
// *sat.LimitError of a solve that ctx or b stopped.
func (enc *Encoding) eachProduct(ctx context.Context, b sat.Budget, limit int, yield func(s *sat.Solver)) (complete bool, work sat.Stats, err error) {
	s := enc.newSolver()
	s.SetBudget(b)
	blocking := make([]logic.Lit, len(enc.names))
	for n := 0; limit <= 0 || n < limit; n++ {
		st, err := s.SolveContext(ctx)
		if err != nil {
			return false, s.Stats(), err
		}
		if st != sat.Sat {
			return true, s.Stats(), nil
		}
		yield(s)
		for i := range blocking {
			l := logic.Lit(i + 1)
			if s.Value(l.Var()) {
				l = -l
			}
			blocking[i] = l
		}
		if !s.AddClause(blocking...) {
			return true, s.Stats(), nil
		}
	}
	return false, s.Stats(), nil
}
