package featmodel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"llhsc/internal/sat"
)

// guardAlgebra is the method set the lifted checker reads both guard
// algebras through.
type guardAlgebra interface {
	Guard(e *Expr) Guard
	And(a, b Guard) Guard
	Not(g Guard) Guard
	Or(a, b Guard) Guard
	Reachable(ctx context.Context, g Guard) (bool, error)
	Witness(g Guard) Configuration
}

// withSpares returns m with n more optional features under its root,
// multiplying its product count by 2^n.
func withSpares(t *testing.T, m *Model, n int) *Model {
	t.Helper()
	root := m.Root
	for i := range n {
		root.Children = append(root.Children, &Feature{Name: fmt.Sprintf("spare%d", i), Group: GroupAnd})
	}
	out, err := NewModel(root, m.Constraints...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProductSetMatchesSession holds the product-set algebra to the
// SAT session on random models on both sides of MaxProductSet valid
// products. Model.ProductSets must return product sets exactly when the
// feature tree allows at most 64 configurations, over every valid
// product. Random compositions of Guard, And, Not and Or (Not of the
// always guard included) must then be reachable in the product sets
// exactly when they are in a NewPresenceEncoder session and when some
// brute-forced valid product satisfies the expression they stand for,
// and every witness of either algebra must be a valid product
// (Model.Conflict) that satisfies that expression.
func TestProductSetMatchesSession(t *testing.T) {
	ctx := context.Background()
	under, over := 0, 0
	for seed := int64(0); seed < 80; seed++ {
		m := randomSmallModel(seed)
		if spares := int(seed % 7); len(m.Names())+spares <= 16 {
			m = withSpares(t, m, spares)
		}
		if len(m.Names()) > 16 {
			continue
		}
		products := bruteForceProducts(t, m)
		ps, _, err := m.ProductSets(ctx, sat.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if tree := treeProducts(m.Root); tree > MaxProductSet {
			if ps != nil {
				t.Errorf("seed %d: a tree of %d configurations held as %d product sets", seed, tree, ps.Products())
			}
		} else if ps == nil || ps.Products() != len(products) {
			t.Fatalf("seed %d: %d products under a tree of %d configurations, not held as product sets", seed, len(products), tree)
		}
		switch n := len(products); {
		case n > MaxProductSet:
			over++
		case ps != nil && n > 0:
			under++
		}
		session := NewPresenceEncoder(m)
		rng := rand.New(rand.NewSource(seed + 7000))
		names := append(m.Names(), "unknown")
		never := Not(Var(m.Root.Name)) // false in every valid product

		type side struct {
			name   string
			guards guardAlgebra
		}
		sides := []side{{"session", session}}
		if ps != nil {
			sides = append(sides, side{"product sets", ps})
		}
		type guard struct {
			gs []Guard // per side
			e  *Expr   // nil: always
		}
		gs := []guard{{gs: make([]Guard, len(sides))}}
		for range 6 {
			e := randomGuard(rng, names, 2)
			g := guard{e: e}
			for _, s := range sides {
				g.gs = append(g.gs, s.guards.Guard(e))
			}
			gs = append(gs, g)
		}
		for range 30 {
			a, b := gs[rng.Intn(len(gs))], gs[rng.Intn(len(gs))]
			op := rng.Intn(3)
			var g guard
			switch op {
			case 0:
				g.e = AndOpt(a.e, b.e)
			case 1:
				g.e = OrOpt(a.e, b.e)
			default:
				g.e = never
				if a.e != nil {
					g.e = Not(a.e)
				}
			}
			for i, s := range sides {
				switch op {
				case 0:
					g.gs = append(g.gs, s.guards.And(a.gs[i], b.gs[i]))
				case 1:
					g.gs = append(g.gs, s.guards.Or(a.gs[i], b.gs[i]))
				default:
					g.gs = append(g.gs, s.guards.Not(a.gs[i]))
				}
			}
			gs = append(gs, g)
		}
		for _, g := range gs {
			want := false
			for _, p := range products {
				want = want || EvalOpt(g.e, ConfigOf(p...))
			}
			for i, s := range sides {
				got, err := s.guards.Reachable(ctx, g.gs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("seed %d: %s: Reachable(%v) = %v, brute force %v", seed, s.name, g.e, got, want)
				}
				if !got {
					continue
				}
				w := s.guards.Witness(g.gs[i])
				if lits := m.Conflict(w); lits != nil {
					t.Errorf("seed %d: %s witness %v of %v is not valid: %v", seed, s.name, w.Sorted(), g.e, lits)
				}
				if !EvalOpt(g.e, w) {
					t.Errorf("seed %d: %s witness %v does not satisfy %v", seed, s.name, w.Sorted(), g.e)
				}
			}
		}
	}
	t.Logf("%d models held as product sets, %d past %d products", under, over, MaxProductSet)
	if under < 20 || over < 5 {
		t.Errorf("%d models at most %d products held as product sets and %d above; want >= 20 and >= 5", under, MaxProductSet, over)
	}
}

// TestTreeProductsBound holds treeProducts to brute force on random
// models: exact on the feature tree alone, and an upper bound once the
// cross-tree constraints apply.
func TestTreeProductsBound(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		m := randomSmallModel(seed)
		bare, err := NewModel(m.Root)
		if err != nil {
			t.Fatal(err)
		}
		tree := treeProducts(m.Root)
		if n := len(bruteForceProducts(t, bare)); tree != uint64(n) {
			t.Errorf("seed %d: treeProducts = %d, the bare tree has %d products", seed, tree, n)
		}
		if n := len(bruteForceProducts(t, m)); uint64(n) > tree {
			t.Errorf("seed %d: %d products exceed the tree's %d", seed, n, tree)
		}
	}
}

// TestProductListPastTreeBound asks for the product sets of a model of
// 20 optional features (2^20 products): the feature tree alone decides
// that it is past the bound, so no solver runs, the model is not even
// encoded, and the kept verdict sends every later check to a session.
func TestProductListPastTreeBound(t *testing.T) {
	root := &Feature{Name: "root", Abstract: true, Group: GroupAnd}
	for i := range 20 {
		root.Children = append(root.Children, &Feature{Name: fmt.Sprintf("f%d", i)})
	}
	m, err := NewModel(root)
	if err != nil {
		t.Fatal(err)
	}
	ps, work, err := m.ProductSets(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if ps != nil || work != (sat.Stats{}) || m.enc != nil {
		t.Errorf("product sets %v after solver work %+v (encoded: %v), want none, none and no encoding", ps, work, m.enc != nil)
	}
	if pl := m.products.Load(); pl == nil || !pl.over {
		t.Error("the verdict was not kept")
	}
}

// TestProductListExactlyAtBound enumerates a model of exactly 64
// products: all 64 are kept, and the set of every valid product is the
// full word.
func TestProductListExactlyAtBound(t *testing.T) {
	root := &Feature{Name: "root", Abstract: true, Group: GroupAnd}
	for i := range 6 {
		root.Children = append(root.Children, &Feature{Name: fmt.Sprintf("f%d", i)})
	}
	m, err := NewModel(root)
	if err != nil {
		t.Fatal(err)
	}
	ps, work, err := m.ProductSets(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Products() != MaxProductSet || ps.pl.valid != ^uint64(0) || work.Propagations == 0 {
		t.Errorf("%d products, valid set %#x, solver work %+v", ps.Products(), ps.pl.valid, work)
	}
	if ok, _ := ps.Reachable(context.Background(), ps.Not(0)); ok {
		t.Error("Not(0) is reachable")
	}
	if _, again, _ := m.ProductSets(context.Background(), sat.Budget{}); again != (sat.Stats{}) {
		t.Errorf("a second call did solver work %+v", again)
	}
}

// TestProductSetsVoidModel asks for the product sets of a void model:
// they range over no product, and no guard, the always guard included,
// is reachable.
func TestProductSetsVoidModel(t *testing.T) {
	root := &Feature{Name: "root", Group: GroupAnd, Children: []*Feature{{Name: "a", Mandatory: true}}}
	m, err := NewModel(root, Not(Var("a")))
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := m.ProductSets(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Guard{0, ps.Guard(Var("a")), ps.Not(0)} {
		if ok, _ := ps.Reachable(context.Background(), g); ok || ps.Products() != 0 {
			t.Errorf("guard %d reachable (%v) over %d products", g, ok, ps.Products())
		}
	}
}

// TestProductListBudget stops the enumeration with an expired
// context deadline and with a canceled context, each returning
// ctx.Err() and never a *sat.LimitError, and with a conflict cap of
// the whole enumeration's conflicts, which its many solves share. No
// stop keeps anything, a cap one higher finishes, and a later
// unbudgeted call enumerates the products.
func TestProductListBudget(t *testing.T) {
	_, work, err := paperModel(t).ProductSets(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	total := work.Conflicts
	if total < 2 {
		t.Fatalf("the enumeration met %d conflicts; the cap needs at least 2", total)
	}
	m := paperModel(t)
	_, _, err = m.ProductSets(context.Background(), sat.Budget{MaxConflicts: total})
	var lim *sat.LimitError
	if !errors.As(err, &lim) || lim.Reason != sat.StopConflicts {
		t.Fatalf("a cap of the enumeration's %d conflicts: err = %v, want a %s *sat.LimitError", total, err, sat.StopConflicts)
	}
	if _, _, err := paperModel(t).ProductSets(context.Background(), sat.Budget{MaxConflicts: total + 1}); err != nil {
		t.Fatalf("a cap of %d conflicts stopped the enumeration: %v", total+1, err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, _, err := m.ProductSets(expired, sat.Budget{}); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: err = %v (%T), want context.DeadlineExceeded", err, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.ProductSets(ctx, sat.Budget{}); err != context.Canceled {
		t.Fatalf("canceled context: err = %v (%T), want context.Canceled", err, err)
	}
	if m.products.Load() != nil {
		t.Fatal("a stopped enumeration was kept")
	}
	ps, _, err := m.ProductSets(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Products() != 12 {
		t.Errorf("%d products, want 12", ps.Products())
	}
}

// TestCertifyRejectsBadLists breaks an enumerated list of the paper's
// model two ways, a product that violates the model and a product
// listed twice, and certify must reject each.
func TestCertifyRejectsBadLists(t *testing.T) {
	m := paperModel(t)
	pl, _, err := m.productList(context.Background(), sat.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.mustEncoding()
	if err := m.certify(enc, pl); err != nil {
		t.Fatalf("the enumerated list fails certification: %v", err)
	}
	invalid := *pl
	invalid.rows = append([]uint64(nil), pl.rows...)
	invalid.rows[0] ^= 1 // deselect the root
	if err := m.certify(enc, &invalid); err == nil {
		t.Error("a product without the root passed certification")
	}
	dup := *pl
	dup.rows = append([]uint64(nil), pl.rows...)
	copy(dup.row(1), pl.row(0))
	if err := m.certify(enc, &dup); err == nil {
		t.Error("a product listed twice passed certification")
	}
}
