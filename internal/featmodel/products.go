package featmodel

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// MaxProductSet is the most valid products a product-set guard ranges
// over: one bit of a uint64 per product (DESIGN.md §14).
const MaxProductSet = 64

// productList is a model's valid products, kept on the model once
// found: every valid product, when the feature tree allows at most
// MaxProductSet configurations, or only the verdict that it allows
// more.
type productList struct {
	over  bool     // the tree allows more than MaxProductSet; nothing else is set
	n     int      // valid products
	valid uint64   // bits 0..n-1: the set of every valid product
	words []uint64 // words[i]: the products that select feature Names()[i]
	rows  []uint64 // product k as AppendModel lays it out: rows[k*stride:(k+1)*stride]
	// stride is the words per row, one bit per feature.
	stride int
}

// overList is the kept verdict of every model past the bound.
var overList = &productList{over: true}

// row returns product k's feature bitset.
func (pl *productList) row(k int) []uint64 {
	return pl.rows[k*pl.stride : (k+1)*pl.stride]
}

// treeCap saturates treeProducts, far above MaxProductSet so that the
// "- 1" of an OR group cannot bring a saturated count back under it.
const treeCap = 1 << 20

// treeProducts returns the number of configurations of f's subtree
// with f selected under the feature tree's rules alone, as
// Model.AppendClauses writes them, saturating at treeCap. Cross-tree
// constraints only remove configurations, so for the root it is an
// upper bound on the model's valid products, exact when there are
// none.
func treeProducts(f *Feature) uint64 {
	if len(f.Children) == 0 {
		return 1
	}
	n := uint64(1)
	switch f.Group {
	case GroupXor: // exactly one child
		n = 0
		for _, c := range f.Children {
			n = min(n+treeProducts(c), treeCap)
		}
	case GroupOr: // any non-empty set of children
		for _, c := range f.Children {
			n = min(n*(treeProducts(c)+1), treeCap)
		}
		n--
	default: // GroupAnd: mandatory children always, optional ones or not
		for _, c := range f.Children {
			k := treeProducts(c)
			if !c.Mandatory {
				k++
			}
			n = min(n*k, treeCap)
		}
	}
	return n
}

// productList returns the model's valid products, finding them on
// first use. A model whose feature tree allows more than
// MaxProductSet configurations is "over" at once, with no solve, so a
// large line pays no more than a tree walk. Any other model enumerates
// its products with Encoding.eachProduct under ctx and b, certifies
// them (certify) and keeps them; callers that race keep the first
// stored list. work is the solver work this call did, zero when the
// list was kept or the tree decided. A stopped enumeration returns its
// *sat.LimitError and keeps nothing, so a later call enumerates again.
// The error is also Encoding's for a malformed model.
func (m *Model) productList(ctx context.Context, b sat.Budget) (pl *productList, work sat.Stats, err error) {
	if pl := m.products.Load(); pl != nil {
		return pl, sat.Stats{}, nil
	}
	if treeProducts(m.Root) > MaxProductSet {
		pl = overList
	} else {
		enc, err := m.Encoding()
		if err != nil {
			return nil, sat.Stats{}, err
		}
		nf := len(enc.names)
		pl = &productList{words: make([]uint64, nf), stride: (nf + 63) / 64}
		var complete bool
		complete, work, err = enc.eachProduct(ctx, b, MaxProductSet+1, func(s *sat.Solver) {
			k := pl.n
			pl.rows = append(pl.rows, make([]uint64, pl.stride)...)
			row := pl.row(k)
			for i := range nf {
				if s.Value(logic.Var(i + 1)) {
					pl.words[i] |= 1 << k
					row[i/64] |= 1 << (i % 64)
				}
			}
			pl.n++
			pl.valid |= 1 << k
		})
		if err != nil {
			return nil, work, err
		}
		if !complete {
			return nil, work, fmt.Errorf("featmodel: more than %d valid products under a feature tree that allows at most %d", MaxProductSet, treeProducts(m.Root))
		}
		if err := m.certify(enc, pl); err != nil {
			return nil, work, err
		}
	}
	m.products.CompareAndSwap(nil, pl)
	return m.products.Load(), work, nil
}

// certify checks an enumerated product list without the solver: every
// product is a valid configuration by Model.Conflict, and no two are
// equal. What it cannot check is completeness, which rests on the
// enumeration's final Unsat answer alone.
func (m *Model) certify(enc *Encoding, pl *productList) error {
	cfg := make(Configuration, len(enc.names))
	for k := range pl.n {
		clear(cfg)
		row := pl.row(k)
		for i, name := range enc.names {
			if row[i/64]&(1<<(i%64)) != 0 {
				cfg[name] = true
			}
		}
		if lits := m.Conflict(cfg); lits != nil {
			return fmt.Errorf("featmodel: enumerated product %v is not valid: violates %v", cfg.Sorted(), lits)
		}
		for j := range k {
			if slices.Equal(pl.row(j), row) {
				return fmt.Errorf("featmodel: product %v enumerated twice", cfg.Sorted())
			}
		}
	}
	return nil
}

// ProductSets is the solver-free guard algebra of a lifted check over
// a model with at most MaxProductSet valid products (DESIGN.md §14): a
// guard is the set of valid products it selects, one bit each. Guard
// evaluates an expression bitwise over the feature words, And is &, Or
// is |, Not is the valid products outside the set, and a guard is
// reachable when its set is not empty, with the lowest-indexed product
// as witness. Handle 0 is every valid product. A ProductSets belongs to
// one check; the product list under it is the model's, shared.
type ProductSets struct {
	enc   *Encoding
	pl    *productList
	sets  []uint64         // guard handle → product set
	setOf map[uint64]Guard // product set → handle
	exprs map[*Expr]Guard  // Guard memo
}

// ProductSets returns a fresh product-set algebra over m's valid
// products, or nil when m's feature tree allows more than
// MaxProductSet configurations, so a lifted check needs a
// PresenceEncoder session. A void model gets product sets over no
// product, in which nothing is reachable. The first call on a model
// enumerates its products under ctx and b (see productList) and
// returns the enumeration's solver work and error; later calls read
// the kept list and do no solver work at all.
func (m *Model) ProductSets(ctx context.Context, b sat.Budget) (ps *ProductSets, work sat.Stats, err error) {
	pl, work, err := m.productList(ctx, b)
	if err != nil || pl.over {
		return nil, work, err
	}
	return &ProductSets{
		enc:   m.mustEncoding(),
		pl:    pl,
		sets:  []uint64{pl.valid},
		setOf: map[uint64]Guard{pl.valid: 0},
		exprs: make(map[*Expr]Guard),
	}, work, nil
}

// Products returns the number of valid products the guards range over.
func (ps *ProductSets) Products() int { return ps.pl.n }

// Guard returns the handle of the valid products in which e holds,
// memoized per expression pointer. A nil expression is the always
// guard 0.
func (ps *ProductSets) Guard(e *Expr) Guard {
	if e == nil {
		return 0
	}
	if g, ok := ps.exprs[e]; ok {
		return g
	}
	g := ps.intern(ps.eval(e))
	ps.exprs[e] = g
	return g
}

// And returns the handle of the intersection of the sets.
func (ps *ProductSets) And(a, b Guard) Guard {
	if a == 0 || a == b {
		return b
	}
	if b == 0 {
		return a
	}
	return ps.intern(ps.sets[a] & ps.sets[b])
}

// Not returns the handle of the valid products outside g's set;
// Not(0) is the empty set.
func (ps *ProductSets) Not(g Guard) Guard {
	return ps.intern(ps.pl.valid &^ ps.sets[g])
}

// Or returns the handle of the union of the sets.
func (ps *ProductSets) Or(a, b Guard) Guard {
	if a == 0 || b == 0 {
		return 0
	}
	if a == b {
		return a
	}
	return ps.intern(ps.sets[a] | ps.sets[b])
}

// Reachable reports whether g's set is not empty. It does no solver
// work, so it never fails.
func (ps *ProductSets) Reachable(_ context.Context, g Guard) (bool, error) {
	return ps.sets[g] != 0, nil
}

// Witness returns the lowest-indexed product of g's set.
func (ps *ProductSets) Witness(g Guard) Configuration {
	return ps.enc.decode(ps.pl.row(bits.TrailingZeros64(ps.sets[g])))
}

// eval returns the set of valid products in which e holds, by
// evaluating e bitwise over the feature words. A name outside the
// model selects no product, as Expr.Eval treats it.
func (ps *ProductSets) eval(e *Expr) uint64 {
	switch e.Kind {
	case ExprVar:
		if v, ok := ps.enc.vars[e.Name]; ok {
			return ps.pl.words[v-1]
		}
		return 0
	case ExprNot:
		return ps.pl.valid &^ ps.eval(e.Args[0])
	case ExprAnd:
		return ps.eval(e.Args[0]) & ps.eval(e.Args[1])
	case ExprOr:
		return ps.eval(e.Args[0]) | ps.eval(e.Args[1])
	case ExprImplies:
		return ps.pl.valid&^ps.eval(e.Args[0]) | ps.eval(e.Args[1])
	}
	panic(fmt.Sprintf("featmodel: expression kind %d", e.Kind))
}

// intern returns the handle of a product set, adding it on first
// sight.
func (ps *ProductSets) intern(set uint64) Guard {
	if g, ok := ps.setOf[set]; ok {
		return g
	}
	g := Guard(len(ps.sets))
	ps.sets = append(ps.sets, set)
	ps.setOf[set] = g
	return g
}
