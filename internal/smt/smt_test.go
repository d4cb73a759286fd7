package smt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"llhsc/internal/sat"
)

func newSolverT() (*Context, *Solver) {
	ctx := NewContext()
	return ctx, NewSolver(ctx)
}

func TestTrivialBool(t *testing.T) {
	ctx, s := newSolverT()
	s.Assert(ctx.True())
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	s.Assert(ctx.False())
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestBoolVars(t *testing.T) {
	ctx, s := newSolverT()
	a := ctx.BoolVar("a")
	b := ctx.BoolVar("b")
	s.Assert(ctx.Implies(a, b))
	s.Assert(a)
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if !s.BoolValue(a) || !s.BoolValue(b) {
		t.Errorf("model a=%v b=%v, want both true", s.BoolValue(a), s.BoolValue(b))
	}
	s.Assert(ctx.Not(b))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestBVConstEquality(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 16)
	s.Assert(ctx.Eq(x, ctx.BVConst(16, 0xbeef)))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if got := s.BVValue(x); got != 0xbeef {
		t.Errorf("x = %#x, want 0xbeef", got)
	}
}

func TestBVAddSolvesForOperand(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 8)
	// x + 10 == 14  =>  x == 4
	s.Assert(ctx.Eq(ctx.Add(x, ctx.BVConst(8, 10)), ctx.BVConst(8, 14)))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if got := s.BVValue(x); got != 4 {
		t.Errorf("x = %d, want 4", got)
	}
}

func TestBVAddWraps(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 8)
	s.Assert(ctx.Eq(x, ctx.BVConst(8, 200)))
	sum := ctx.Add(x, ctx.BVConst(8, 100))
	s.Assert(ctx.Eq(sum, ctx.BVConst(8, 44))) // 300 mod 256
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat (modular add)", got)
	}
}

func TestBVArithmeticAgainstNative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		width := []int{4, 8, 13, 32}[rng.Intn(4)]
		mask := uint64(1)<<uint(width) - 1
		av := rng.Uint64() & mask
		bv := rng.Uint64() & mask

		ctx, s := newSolverT()
		x := ctx.BVVar("x", width)
		y := ctx.BVVar("y", width)
		s.Assert(ctx.Eq(x, ctx.BVConst(width, av)))
		s.Assert(ctx.Eq(y, ctx.BVConst(width, bv)))
		if got := s.Check(); got != sat.Sat {
			t.Fatalf("setup unsat at width %d", width)
		}
		tests := []struct {
			name string
			term *Term
			want uint64
		}{
			{"add", ctx.Add(x, y), (av + bv) & mask},
			{"sub", ctx.Sub(x, y), (av - bv) & mask},
			{"mul", ctx.Mul(x, y), (av * bv) & mask},
			{"and", ctx.BVAnd(x, y), av & bv},
			{"or", ctx.BVOr(x, y), av | bv},
			{"xor", ctx.BVXor(x, y), av ^ bv},
			{"not", ctx.BVNot(x), ^av & mask},
			{"shl3", ctx.Shl(x, 3), (av << 3) & mask},
			{"lshr2", ctx.Lshr(x, 2), av >> 2},
		}
		for _, tt := range tests {
			if got := s.BVValue(tt.term); got != tt.want {
				t.Errorf("width=%d a=%#x b=%#x %s: got %#x, want %#x",
					width, av, bv, tt.name, got, tt.want)
			}
		}
		if got, want := s.BoolValue(ctx.Ult(x, y)), av < bv; got != want {
			t.Errorf("ult: got %v, want %v", got, want)
		}
		if got, want := s.BoolValue(ctx.Ule(x, y)), av <= bv; got != want {
			t.Errorf("ule: got %v, want %v", got, want)
		}
	}
}

func TestComparatorsAsConstraints(t *testing.T) {
	// Solver (not just model eval) must decide comparisons: x < 4 & x > 1 & x != 2 => x == 3.
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 8)
	s.Assert(ctx.Ult(x, ctx.BVConst(8, 4)))
	s.Assert(ctx.Ugt(x, ctx.BVConst(8, 1)))
	s.Assert(ctx.Not(ctx.Eq(x, ctx.BVConst(8, 2))))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if got := s.BVValue(x); got != 3 {
		t.Errorf("x = %d, want 3", got)
	}
	s.Assert(ctx.Not(ctx.Eq(x, ctx.BVConst(8, 3))))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestExtractConcat(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 16)
	s.Assert(ctx.Eq(x, ctx.BVConst(16, 0xabcd)))
	if got := s.Check(); got != sat.Sat {
		t.Fatal("setup unsat")
	}
	hi := ctx.Extract(x, 15, 8)
	lo := ctx.Extract(x, 7, 0)
	if got := s.BVValue(hi); got != 0xab {
		t.Errorf("hi = %#x, want 0xab", got)
	}
	if got := s.BVValue(lo); got != 0xcd {
		t.Errorf("lo = %#x, want 0xcd", got)
	}
	if got := s.BVValue(ctx.Concat(hi, lo)); got != 0xabcd {
		t.Errorf("concat = %#x, want 0xabcd", got)
	}
	if got := s.BVValue(ctx.ZeroExtend(lo, 32)); got != 0xcd {
		t.Errorf("zext = %#x, want 0xcd", got)
	}
}

func TestIte(t *testing.T) {
	ctx, s := newSolverT()
	c := ctx.BoolVar("c")
	x := ctx.Ite(c, ctx.BVConst(8, 7), ctx.BVConst(8, 9))
	s.Assert(ctx.Eq(x, ctx.BVConst(8, 9)))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if s.BoolValue(c) {
		t.Error("c should be false to select 9")
	}
}

func TestRegionOverlapWitness(t *testing.T) {
	// The paper's running example: memory bank [0x60000000,0x80000000)
	// and uart at [0x60000000,0x60001000): llhsc must find a witness
	// address inside both (Section I-A).
	ctx, s := newSolverT()
	w := 32
	x := ctx.BVVar("x", w)
	memBase := ctx.BVConst(w, 0x60000000)
	memEnd := ctx.BVConst(w, 0x80000000)
	uartBase := ctx.BVConst(w, 0x60000000)
	uartEnd := ctx.BVConst(w, 0x60001000)
	s.Assert(ctx.And(
		ctx.Ule(memBase, x), ctx.Ult(x, memEnd),
		ctx.Ule(uartBase, x), ctx.Ult(x, uartEnd),
	))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat (overlap exists)", got)
	}
	witness := s.BVValue(x)
	if witness < 0x60000000 || witness >= 0x60001000 {
		t.Errorf("witness %#x not in the overlap", witness)
	}
}

func TestRegionNoOverlap(t *testing.T) {
	ctx, s := newSolverT()
	w := 32
	x := ctx.BVVar("x", w)
	s.Assert(ctx.And(
		ctx.Ule(ctx.BVConst(w, 0x1000), x), ctx.Ult(x, ctx.BVConst(w, 0x2000)),
		ctx.Ule(ctx.BVConst(w, 0x3000), x), ctx.Ult(x, ctx.BVConst(w, 0x4000)),
	))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat (disjoint regions)", got)
	}
}

func TestPushPop(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 8)
	s.Assert(ctx.Ult(x, ctx.BVConst(8, 10)))

	s.Push()
	s.Assert(ctx.Eq(x, ctx.BVConst(8, 200)))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("inner Check = %v, want Unsat", got)
	}
	s.Pop()

	if got := s.Check(); got != sat.Sat {
		t.Fatalf("after Pop: Check = %v, want Sat", got)
	}
	if got := s.BVValue(x); got >= 10 {
		t.Errorf("x = %d, want < 10", got)
	}
	if s.NumScopes() != 0 {
		t.Errorf("NumScopes = %d, want 0", s.NumScopes())
	}
}

func TestNestedPushPop(t *testing.T) {
	ctx, s := newSolverT()
	a := ctx.BoolVar("a")
	b := ctx.BoolVar("b")
	s.Assert(ctx.Or(a, b))
	s.Push()
	s.Assert(ctx.Not(a))
	s.Push()
	s.Assert(ctx.Not(b))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("deepest: %v, want Unsat", got)
	}
	s.Pop()
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("middle: %v, want Sat", got)
	}
	if s.BoolValue(a) || !s.BoolValue(b) {
		t.Errorf("model a=%v b=%v, want false,true", s.BoolValue(a), s.BoolValue(b))
	}
	s.Pop()
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("base: %v, want Sat", got)
	}
}

func TestPopBasePanics(t *testing.T) {
	_, s := newSolverT()
	defer func() {
		if recover() == nil {
			t.Error("Pop on base scope should panic")
		}
	}()
	s.Pop()
}

func TestNamedAssertionsUnsatNames(t *testing.T) {
	ctx, s := newSolverT()
	a := ctx.BoolVar("a")
	s.AssertNamed("require-a", a)
	s.AssertNamed("forbid-a", ctx.Not(a))
	s.AssertNamed("unrelated", ctx.BoolVar("z"))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
	names := s.UnsatNames()
	seen := make(map[string]bool)
	for _, n := range names {
		seen[n] = true
	}
	if !seen["require-a"] || !seen["forbid-a"] {
		t.Errorf("UnsatNames = %v, want require-a and forbid-a", names)
	}
	if seen["unrelated"] {
		t.Errorf("UnsatNames = %v should not include unrelated", names)
	}
}

func TestStringEquality(t *testing.T) {
	ctx, s := newSolverT()
	v := ctx.StrVar("prop")
	s.Assert(ctx.Eq(v, ctx.StrConst("reg")))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if val, ok := s.StrValue(v); !ok || val != "reg" {
		t.Errorf("StrValue = %q,%v, want reg,true", val, ok)
	}
	// a variable cannot equal two distinct constants
	s.Assert(ctx.Eq(v, ctx.StrConst("device_type")))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestStringVarVarEquality(t *testing.T) {
	ctx, s := newSolverT()
	// intern the domain first (finite-domain semantics)
	regC := ctx.StrConst("reg")
	dtC := ctx.StrConst("device_type")
	v1 := ctx.StrVar("p1")
	v2 := ctx.StrVar("p2")
	s.Assert(ctx.Eq(v1, regC))
	s.Assert(ctx.Eq(v1, v2))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	if val, _ := s.StrValue(v2); val != "reg" {
		t.Errorf("v2 = %q, want reg", val)
	}
	s.Assert(ctx.Eq(v2, dtC))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestHashConsing(t *testing.T) {
	ctx := NewContext()
	a := ctx.BVVar("a", 8)
	b := ctx.BVVar("b", 8)
	t1 := ctx.Add(a, b)
	t2 := ctx.Add(a, b)
	if t1 != t2 {
		t.Error("hash-consing should return identical terms")
	}
	ctx2 := NewContext(WithoutHashConsing())
	a2 := ctx2.BVVar("a", 8)
	b2 := ctx2.BVVar("b", 8)
	if ctx2.Add(a2, b2) == ctx2.Add(a2, b2) {
		t.Error("WithoutHashConsing should produce distinct terms")
	}
}

func TestConstantFolding(t *testing.T) {
	ctx := NewContext()
	if got := ctx.Add(ctx.BVConst(8, 200), ctx.BVConst(8, 100)); got.Op() != OpBVConst || got.Uint64() != 44 {
		t.Errorf("const add not folded: %v", got)
	}
	if got := ctx.Ult(ctx.BVConst(8, 1), ctx.BVConst(8, 2)); got != ctx.True() {
		t.Errorf("const ult not folded: %v", got)
	}
	if got := ctx.Eq(ctx.StrConst("a"), ctx.StrConst("a")); got != ctx.True() {
		t.Errorf("string const eq not folded: %v", got)
	}
	if got := ctx.Extract(ctx.BVConst(16, 0xabcd), 15, 8); got.Uint64() != 0xab {
		t.Errorf("const extract not folded: %v", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	ctx := NewContext()
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched widths should panic")
		}
	}()
	ctx.Add(ctx.BVVar("a", 8), ctx.BVVar("b", 16))
}

func TestSameVarDifferentWidthPanics(t *testing.T) {
	ctx, s := newSolverT()
	s.Assert(ctx.Eq(ctx.BVVar("x", 8), ctx.BVConst(8, 1)))
	defer func() {
		if recover() == nil {
			t.Error("reusing a variable name at another width should panic")
		}
	}()
	s.Assert(ctx.Eq(ctx.BVVar("x", 16), ctx.BVConst(16, 1)))
}

func TestPropertyAddCommutes(t *testing.T) {
	prop := func(a, b uint16) bool {
		ctx, s := newSolverT()
		x := ctx.BVVar("x", 16)
		y := ctx.BVVar("y", 16)
		s.Assert(ctx.Eq(x, ctx.BVConst(16, uint64(a))))
		s.Assert(ctx.Eq(y, ctx.BVConst(16, uint64(b))))
		if s.Check() != sat.Sat {
			return false
		}
		return s.BVValue(ctx.Add(x, y)) == s.BVValue(ctx.Add(y, x)) &&
			s.BVValue(ctx.Add(x, y)) == uint64(a+b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubInverse(t *testing.T) {
	prop := func(a, b uint8) bool {
		ctx, s := newSolverT()
		x := ctx.BVVar("x", 8)
		s.Assert(ctx.Eq(ctx.Add(x, ctx.BVConst(8, uint64(b))), ctx.BVConst(8, uint64(a))))
		if s.Check() != sat.Sat {
			return false
		}
		return uint8(s.BVValue(x))+b == a
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	ctx, s := newSolverT()
	x := ctx.BVVar("x", 32)
	s.Assert(ctx.Ult(x, ctx.BVConst(32, 100)))
	s.Check()
	st := s.Stats()
	if st.Checks != 1 {
		t.Errorf("Checks = %d, want 1", st.Checks)
	}
	if st.SAT.Vars == 0 {
		t.Error("expected SAT vars > 0")
	}
}

func TestForallFinite(t *testing.T) {
	ctx, s := newSolverT()
	// domain of three names; R must hold for each
	for _, n := range []string{"reg", "device_type", "compatible"} {
		ctx.StrConst(n)
	}
	r := func(name *Term) *Term { return ctx.BoolVar("R:" + name.Name()) }
	s.Assert(ctx.ForallFinite(ctx.StrDomainTerms(), r))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v", got)
	}
	for _, n := range []string{"reg", "device_type", "compatible"} {
		if !s.BoolValue(ctx.BoolVar("R:" + n)) {
			t.Errorf("R(%s) should be forced true", n)
		}
	}
	// empty domain: vacuous truth
	if got := ctx.ForallFinite(nil, r); got != ctx.True() {
		t.Errorf("empty forall = %v", got)
	}
	if got := ctx.ExistsFinite(nil, r); got != ctx.False() {
		t.Errorf("empty exists = %v", got)
	}
}

func TestExistsFinite(t *testing.T) {
	ctx, s := newSolverT()
	for _, n := range []string{"a", "b"} {
		ctx.StrConst(n)
	}
	r := func(name *Term) *Term { return ctx.BoolVar("P:" + name.Name()) }
	s.Assert(ctx.ExistsFinite(ctx.StrDomainTerms(), r))
	s.Assert(ctx.Not(ctx.BoolVar("P:a")))
	if got := s.Check(); got != sat.Sat {
		t.Fatalf("Check = %v", got)
	}
	if !s.BoolValue(ctx.BoolVar("P:b")) {
		t.Error("P(b) must hold when P(a) is denied")
	}
	s.Assert(ctx.Not(ctx.BoolVar("P:b")))
	if got := s.Check(); got != sat.Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

// TestCheckContextStops: a done context stops CheckContext and
// CheckAssumingContext with ctx.Err() itself, never a *sat.LimitError,
// while a conflict budget that runs out is the *sat.LimitError. Either
// way the solver answers again afterwards.
func TestCheckContextStops(t *testing.T) {
	c, s := newSolverT()
	// factor 65521 * 65519 over 32-bit vectors, both factors above 1:
	// no answer without search
	x, y := c.BVVar("x", 32), c.BVVar("y", 32)
	s.Assert(c.Eq(c.Mul(x, y), c.BVConst(32, 65521*65519)))
	s.Assert(c.Ugt(x, c.BVConst(32, 1)))
	s.Assert(c.Ugt(y, c.BVConst(32, 1)))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if st, err := s.CheckContext(canceled); st != sat.Unknown || err != context.Canceled {
		t.Fatalf("CheckContext = %v/%v, want Unknown/context.Canceled", st, err)
	}
	if st, err := s.CheckAssumingContext(canceled, c.Ult(x, y)); st != sat.Unknown || err != context.Canceled {
		t.Fatalf("CheckAssumingContext = %v/%v, want Unknown/context.Canceled", st, err)
	}
	if lim := s.LastLimit(); lim != nil {
		t.Errorf("LastLimit = %v after a cancellation, want nil", lim)
	}
	s.SetBudget(sat.Budget{MaxConflicts: 1})
	st, err := s.CheckContext(context.Background())
	var lim *sat.LimitError
	if st != sat.Unknown || !errors.As(err, &lim) || lim.Reason != sat.StopConflicts {
		t.Fatalf("budgeted CheckContext = %v/%v, want Unknown with a %q *sat.LimitError", st, err, sat.StopConflicts)
	}
	s.SetBudget(sat.Budget{})
	if got := s.CheckAssuming(c.Eq(x, c.BVConst(32, 1))); got != sat.Unsat {
		t.Errorf("CheckAssuming(x = 1) = %v after the stops, want Unsat", got)
	}
}
