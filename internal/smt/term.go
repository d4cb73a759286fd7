// Package smt implements a small SMT solver over the fragment the
// llhsc paper needs: propositional logic, fixed-width bit-vectors
// (decided by bit-blasting to SAT, exactly the strategy the paper
// credits Z3 with), and a finite-domain string sort used to encode
// node/property names ("the hybrid theory in Z3", Section IV-B).
//
// Terms are hash-consed in a Context; the Solver compiles asserted
// terms to CNF and delegates to the CDCL solver in internal/sat.
// Push/Pop scopes and named assertions (with unsat-name extraction)
// are implemented with activation literals, mirroring the incremental
// Z3 usage the paper describes in Section VI.
package smt

import (
	"fmt"
	"strings"
)

// Sort classifies terms.
type Sort int

// Term sorts.
const (
	SortBool Sort = iota + 1
	SortBV
	SortString
)

func (s Sort) String() string {
	switch s {
	case SortBool:
		return "Bool"
	case SortBV:
		return "BitVec"
	case SortString:
		return "String"
	default:
		return fmt.Sprintf("Sort(%d)", int(s))
	}
}

// Op is a term constructor tag.
type Op int

// Term operators.
const (
	OpTrue Op = iota + 1
	OpFalse
	OpBoolVar
	OpNot
	OpAnd
	OpOr
	OpIte // Ite(cond, then, else) over Bool or BV

	OpBVConst
	OpBVVar
	OpBVAdd
	OpBVSub
	OpBVMul
	OpBVAnd
	OpBVOr
	OpBVXor
	OpBVNot
	OpBVShl  // shift left by constant amount (args[1] must be OpBVConst)
	OpBVLshr // logical shift right by constant amount
	OpBVUlt
	OpBVUle
	OpBVExtract // Extract(t, hi, lo) packed in val: hi<<8|lo
	OpBVConcat  // Concat(hi, lo)

	OpEq // equality over Bool, BV or String

	OpStrConst
	OpStrVar
)

// Term is an immutable, hash-consed SMT term. Terms must be created
// through a Context; terms from different contexts must not be mixed.
type Term struct {
	op    Op
	sort  Sort
	width int    // bit width for SortBV
	val   uint64 // constant value / packed extract bounds
	name  string // variable name or string constant value
	args  []*Term
	id    int
}

// Op returns the operator tag.
func (t *Term) Op() Op { return t.op }

// Sort returns the term's sort.
func (t *Term) Sort() Sort { return t.sort }

// Width returns the bit width of a bit-vector term (0 otherwise).
func (t *Term) Width() int { return t.width }

// Name returns the variable name or string-constant value.
func (t *Term) Name() string { return t.name }

// Uint64 returns the value of a BVConst term.
func (t *Term) Uint64() uint64 { return t.val }

// Args returns the argument terms. The slice must not be modified.
func (t *Term) Args() []*Term { return t.args }

// String renders the term in an SMT-LIB-flavoured syntax.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.op {
	case OpTrue:
		b.WriteString("true")
	case OpFalse:
		b.WriteString("false")
	case OpBoolVar, OpBVVar, OpStrVar:
		b.WriteString(t.name)
	case OpBVConst:
		fmt.Fprintf(b, "#x%0*x", (t.width+3)/4, t.val)
	case OpStrConst:
		fmt.Fprintf(b, "%q", t.name)
	case OpBVExtract:
		hi, lo := t.val>>8, t.val&0xff
		fmt.Fprintf(b, "((_ extract %d %d) %s)", hi, lo, t.args[0])
	default:
		b.WriteString("(")
		b.WriteString(opName(t.op))
		for _, a := range t.args {
			b.WriteString(" ")
			a.write(b)
		}
		b.WriteString(")")
	}
}

func opName(op Op) string {
	switch op {
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpIte:
		return "ite"
	case OpBVAdd:
		return "bvadd"
	case OpBVSub:
		return "bvsub"
	case OpBVMul:
		return "bvmul"
	case OpBVAnd:
		return "bvand"
	case OpBVOr:
		return "bvor"
	case OpBVXor:
		return "bvxor"
	case OpBVNot:
		return "bvnot"
	case OpBVShl:
		return "bvshl"
	case OpBVLshr:
		return "bvlshr"
	case OpBVUlt:
		return "bvult"
	case OpBVUle:
		return "bvule"
	case OpBVConcat:
		return "concat"
	case OpEq:
		return "="
	default:
		return fmt.Sprintf("op%d", int(op))
	}
}

// Context owns a hash-consed term universe. It is not safe for
// concurrent use.
type Context struct {
	// table buckets interned terms by an integer hash of their shape
	// (op, width, val, name, argument ids). Earlier versions keyed the
	// intern map by a built string, which cost one allocation per mk —
	// the dominant line in blasting profiles; the bucket walk compares
	// shapes field-by-field instead, so interning allocates nothing on
	// a hit.
	table   map[uint64][]*Term
	nextID  int
	consing bool

	// intern-table effectiveness counters (InternStats): a hit is an mk
	// that found an existing structurally equal term, a miss allocates.
	// Plain ints — the Context is single-goroutine by contract.
	internHits   uint64
	internMisses uint64

	trueT  *Term
	falseT *Term

	// intern table for the finite string domain, in first-seen order
	strIndex map[string]int
	strNames []string

	// Arena-backed term storage: interned terms live in fixed-capacity
	// slabs (stable pointers — a full slab is retired, never grown),
	// their argument slices in append-only pointer slabs, so an intern
	// miss costs amortized slab appends instead of two heap objects,
	// and an intern hit costs nothing at all (the candidate Term is
	// passed by value and its args may alias argScratch).
	termSlab   []Term
	argSlab    []*Term
	argScratch [3]*Term
}

// ContextOption configures a Context.
type ContextOption func(*Context)

// WithoutHashConsing disables structural sharing of terms. Used only by
// the ablation benchmark (DESIGN.md §5); production callers should keep
// consing enabled.
func WithoutHashConsing() ContextOption {
	return func(c *Context) { c.consing = false }
}

// NewContext returns an empty term context.
func NewContext(opts ...ContextOption) *Context {
	c := &Context{
		table:    make(map[uint64][]*Term),
		consing:  true,
		strIndex: make(map[string]int),
	}
	for _, o := range opts {
		o(c)
	}
	c.trueT = c.mk(Term{op: OpTrue, sort: SortBool})
	c.falseT = c.mk(Term{op: OpFalse, sort: SortBool})
	return c
}

// mk interns a candidate term. The candidate is passed by value so an
// intern hit performs no allocation; its args slice may alias the
// context's shared scratch (pair/single/triple) and is copied into the
// arena only on a miss, when the term is given identity.
func (c *Context) mk(t Term) *Term {
	if !c.consing {
		c.nextID++
		t.id = c.nextID
		c.internMisses++
		return c.alloc(t)
	}
	h := hashTerm(&t)
	for _, e := range c.table[h] {
		if sameShape(e, &t) {
			c.internHits++
			return e
		}
	}
	c.nextID++
	t.id = c.nextID
	p := c.alloc(t)
	c.table[h] = append(c.table[h], p)
	c.internMisses++
	return p
}

const (
	termSlabSize = 512
	argSlabSize  = 1024
)

// alloc copies the term (and its possibly scratch-backed args) into
// arena storage and returns a pointer that stays valid for the life of
// the context.
func (c *Context) alloc(t Term) *Term {
	t.args = c.copyArgs(t.args)
	if len(c.termSlab) == cap(c.termSlab) {
		// Full slabs stay referenced by the interned pointers; only the
		// context's handle moves on, so handed-out *Term never move.
		c.termSlab = make([]Term, 0, termSlabSize)
	}
	c.termSlab = append(c.termSlab, t)
	return &c.termSlab[len(c.termSlab)-1]
}

func (c *Context) copyArgs(args []*Term) []*Term {
	if len(args) == 0 {
		return nil
	}
	if len(args) > argSlabSize/2 {
		return append([]*Term(nil), args...)
	}
	if cap(c.argSlab)-len(c.argSlab) < len(args) {
		c.argSlab = make([]*Term, 0, argSlabSize)
	}
	start := len(c.argSlab)
	c.argSlab = append(c.argSlab, args...)
	return c.argSlab[start:len(c.argSlab):len(c.argSlab)]
}

// pair, single and triple stage argument lists in a scratch array that
// mk's miss path copies out of, so building a term that turns out to be
// interned already allocates nothing. The scratch must only be passed
// straight into mk — never stored.
func (c *Context) pair(a, b *Term) []*Term {
	c.argScratch[0], c.argScratch[1] = a, b
	return c.argScratch[:2]
}

func (c *Context) single(a *Term) []*Term {
	c.argScratch[0] = a
	return c.argScratch[:1]
}

func (c *Context) triple(a, b, d *Term) []*Term {
	c.argScratch[0], c.argScratch[1], c.argScratch[2] = a, b, d
	return c.argScratch[:3]
}

// InternStats reports the hash-consing table's hit/miss counts since
// the context was created. The hit rate is the observable payoff of
// structural sharing (DESIGN.md §5's hash-consing ablation); the
// /metrics endpoint aggregates it across all contexts a request built.
func (c *Context) InternStats() (hits, misses uint64) {
	return c.internHits, c.internMisses
}

// hashTerm mixes the fields that determine a term's identity with
// FNV-1a. Argument identity is their (already assigned) intern ids, so
// hashing never recurses.
func hashTerm(t *Term) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(t.op))
	mix(uint64(t.width))
	mix(t.val)
	for i := 0; i < len(t.name); i++ {
		h ^= uint64(t.name[i])
		h *= prime64
	}
	mix(uint64(len(t.name)))
	for _, a := range t.args {
		mix(uint64(a.id))
	}
	return h
}

// sameShape reports structural equality between an interned term and a
// candidate. Arguments compare by pointer: they were interned first, so
// structurally equal subterms are already the same pointer.
func sameShape(a, b *Term) bool {
	if a.op != b.op || a.width != b.width || a.val != b.val ||
		a.name != b.name || len(a.args) != len(b.args) {
		return false
	}
	for i, arg := range a.args {
		if arg != b.args[i] {
			return false
		}
	}
	return true
}

// NumTerms returns the number of distinct terms created (hash-consed
// contexts count shared structure once).
func (c *Context) NumTerms() int { return c.nextID }

// True returns the Boolean constant true.
func (c *Context) True() *Term { return c.trueT }

// False returns the Boolean constant false.
func (c *Context) False() *Term { return c.falseT }

// Bool returns the Boolean constant for v.
func (c *Context) Bool(v bool) *Term {
	if v {
		return c.trueT
	}
	return c.falseT
}

// BoolVar returns the Boolean variable with the given name.
func (c *Context) BoolVar(name string) *Term {
	return c.mk(Term{op: OpBoolVar, sort: SortBool, name: name})
}

// BVConst returns a bit-vector constant of the given width (1..64).
// Values wider than the width are truncated.
func (c *Context) BVConst(width int, val uint64) *Term {
	checkWidth(width)
	return c.mk(Term{op: OpBVConst, sort: SortBV, width: width, val: maskTo(val, width)})
}

// BVVar returns the bit-vector variable with the given name and width.
func (c *Context) BVVar(name string, width int) *Term {
	checkWidth(width)
	return c.mk(Term{op: OpBVVar, sort: SortBV, width: width, name: name})
}

// StrConst returns the string constant for value, interning it into the
// context's finite string domain.
func (c *Context) StrConst(value string) *Term {
	if _, ok := c.strIndex[value]; !ok {
		c.strIndex[value] = len(c.strNames)
		c.strNames = append(c.strNames, value)
	}
	return c.mk(Term{op: OpStrConst, sort: SortString, name: value})
}

// StrVar returns the string variable with the given name. String
// variables range over the finite domain of interned string constants.
func (c *Context) StrVar(name string) *Term {
	return c.mk(Term{op: OpStrVar, sort: SortString, name: name})
}

// StrDomain returns the interned string constants, in first-seen order.
func (c *Context) StrDomain() []string {
	return append([]string(nil), c.strNames...)
}

func checkWidth(w int) {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("smt: bit-vector width %d out of range [1,64]", w))
	}
}

func maskTo(v uint64, width int) uint64 {
	if width >= 64 {
		return v
	}
	return v & ((1 << uint(width)) - 1)
}

// Not returns the negation of a Boolean term.
func (c *Context) Not(t *Term) *Term {
	c.wantSort(t, SortBool)
	switch t.op {
	case OpTrue:
		return c.falseT
	case OpFalse:
		return c.trueT
	case OpNot:
		return t.args[0]
	}
	return c.mk(Term{op: OpNot, sort: SortBool, args: c.single(t)})
}

// And returns the conjunction of the given Boolean terms. Nested
// conjunctions are flattened, repeated arguments deduplicated, and a
// complementary pair (t and ¬t) short-circuits to false.
func (c *Context) And(ts ...*Term) *Term {
	return c.nary(OpAnd, ts)
}

// Or returns the disjunction of the given Boolean terms. Nested
// disjunctions are flattened, repeated arguments deduplicated, and a
// complementary pair (t and ¬t) short-circuits to true.
func (c *Context) Or(ts ...*Term) *Term {
	return c.nary(OpOr, ts)
}

// boolArgSet tracks the arguments gathered so far for an n-ary
// connective. Small argument lists scan linearly; past a threshold it
// switches to maps so wide connectives (E8's one-shot overlap query,
// bench.AnyCollision, builds a disjunction over every region pair)
// stay linear.
type boolArgSet struct {
	args []*Term
	seen map[*Term]bool // present args, by interned pointer
	neg  map[*Term]bool // operands of present OpNot args
}

const boolArgScanMax = 16

// add records t, reporting whether its complement ¬t (or, for t = ¬u,
// the operand u) is already present. Duplicates are dropped.
func (s *boolArgSet) add(t *Term) (complement bool) {
	if s.seen == nil && len(s.args) >= boolArgScanMax {
		s.seen = make(map[*Term]bool, 2*len(s.args))
		s.neg = make(map[*Term]bool)
		for _, a := range s.args {
			s.seen[a] = true
			if a.op == OpNot {
				s.neg[a.args[0]] = true
			}
		}
	}
	if s.seen != nil {
		if s.seen[t] {
			return false
		}
		if s.neg[t] || (t.op == OpNot && s.seen[t.args[0]]) {
			return true
		}
		s.seen[t] = true
		if t.op == OpNot {
			s.neg[t.args[0]] = true
		}
	} else {
		for _, a := range s.args {
			if a == t {
				return false
			}
			if (a.op == OpNot && a.args[0] == t) || (t.op == OpNot && t.args[0] == a) {
				return true
			}
		}
	}
	s.args = append(s.args, t)
	return false
}

func (c *Context) nary(op Op, ts []*Term) *Term {
	neutral, absorbing := c.trueT, c.falseT
	if op == OpOr {
		neutral, absorbing = c.falseT, c.trueT
	}
	set := boolArgSet{args: make([]*Term, 0, len(ts))}
	for _, t := range ts {
		c.wantSort(t, SortBool)
		switch {
		case t == neutral:
		case t == absorbing:
			return absorbing
		case t.op == op:
			for _, a := range t.args {
				if set.add(a) {
					return absorbing
				}
			}
		default:
			if set.add(t) {
				return absorbing
			}
		}
	}
	switch len(set.args) {
	case 0:
		return neutral
	case 1:
		return set.args[0]
	}
	return c.mk(Term{op: op, sort: SortBool, args: set.args})
}

// Implies returns a → b.
func (c *Context) Implies(a, b *Term) *Term { return c.Or(c.Not(a), b) }

// Iff returns a ↔ b (equality over Bool).
func (c *Context) Iff(a, b *Term) *Term { return c.Eq(a, b) }

// Xor returns exclusive-or of two Boolean terms.
func (c *Context) Xor(a, b *Term) *Term { return c.Not(c.Eq(a, b)) }

// Ite returns if cond then a else b; a and b must share a sort (Bool or
// BV of equal width).
func (c *Context) Ite(cond, a, b *Term) *Term {
	c.wantSort(cond, SortBool)
	if a.sort != b.sort || a.width != b.width {
		panic("smt: Ite branch sorts differ")
	}
	if cond.op == OpTrue {
		return a
	}
	if cond.op == OpFalse {
		return b
	}
	if a == b {
		return a
	}
	return c.mk(Term{op: OpIte, sort: a.sort, width: a.width, args: c.triple(cond, a, b)})
}

// Eq returns equality between two terms of the same sort.
func (c *Context) Eq(a, b *Term) *Term {
	if a.sort != b.sort {
		panic(fmt.Sprintf("smt: Eq over different sorts %v and %v", a.sort, b.sort))
	}
	if a.sort == SortBV && a.width != b.width {
		panic(fmt.Sprintf("smt: Eq over different widths %d and %d", a.width, b.width))
	}
	if a == b {
		return c.trueT
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val == b.val)
	}
	if a.op == OpStrConst && b.op == OpStrConst {
		return c.Bool(a.name == b.name)
	}
	if (a.op == OpTrue || a.op == OpFalse) && (b.op == OpTrue || b.op == OpFalse) {
		return c.Bool(a.op == b.op)
	}
	// canonical argument order for hash-consing
	if b.id < a.id {
		a, b = b, a
	}
	return c.mk(Term{op: OpEq, sort: SortBool, args: c.pair(a, b)})
}

func (c *Context) bvBinary(op Op, a, b *Term) *Term {
	c.wantSort(a, SortBV)
	c.wantSort(b, SortBV)
	if a.width != b.width {
		panic(fmt.Sprintf("smt: width mismatch %d vs %d", a.width, b.width))
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		if v, ok := foldBV(op, a.val, b.val, a.width); ok {
			return c.BVConst(a.width, v)
		}
	}
	return c.mk(Term{op: op, sort: SortBV, width: a.width, args: c.pair(a, b)})
}

func foldBV(op Op, x, y uint64, width int) (uint64, bool) {
	switch op {
	case OpBVAdd:
		return maskTo(x+y, width), true
	case OpBVSub:
		return maskTo(x-y, width), true
	case OpBVMul:
		return maskTo(x*y, width), true
	case OpBVAnd:
		return x & y, true
	case OpBVOr:
		return x | y, true
	case OpBVXor:
		return x ^ y, true
	}
	return 0, false
}

// Add returns a + b (modular).
func (c *Context) Add(a, b *Term) *Term { return c.bvBinary(OpBVAdd, a, b) }

// Sub returns a - b (modular).
func (c *Context) Sub(a, b *Term) *Term { return c.bvBinary(OpBVSub, a, b) }

// Mul returns a * b (modular).
func (c *Context) Mul(a, b *Term) *Term { return c.bvBinary(OpBVMul, a, b) }

// BVAnd returns the bitwise and of a and b.
func (c *Context) BVAnd(a, b *Term) *Term { return c.bvBinary(OpBVAnd, a, b) }

// BVOr returns the bitwise or of a and b.
func (c *Context) BVOr(a, b *Term) *Term { return c.bvBinary(OpBVOr, a, b) }

// BVXor returns the bitwise xor of a and b.
func (c *Context) BVXor(a, b *Term) *Term { return c.bvBinary(OpBVXor, a, b) }

// BVNot returns the bitwise complement of a.
func (c *Context) BVNot(a *Term) *Term {
	c.wantSort(a, SortBV)
	if a.op == OpBVConst {
		return c.BVConst(a.width, ^a.val)
	}
	return c.mk(Term{op: OpBVNot, sort: SortBV, width: a.width, args: c.single(a)})
}

// Shl returns a << n for a constant shift amount n.
func (c *Context) Shl(a *Term, n int) *Term {
	c.wantSort(a, SortBV)
	if n < 0 || n > a.width {
		panic("smt: shift amount out of range")
	}
	if a.op == OpBVConst {
		return c.BVConst(a.width, a.val<<uint(n))
	}
	return c.mk(Term{op: OpBVShl, sort: SortBV, width: a.width, val: uint64(n), args: c.single(a)})
}

// Lshr returns a >> n (logical) for a constant shift amount n.
func (c *Context) Lshr(a *Term, n int) *Term {
	c.wantSort(a, SortBV)
	if n < 0 || n > a.width {
		panic("smt: shift amount out of range")
	}
	if a.op == OpBVConst {
		return c.BVConst(a.width, a.val>>uint(n))
	}
	return c.mk(Term{op: OpBVLshr, sort: SortBV, width: a.width, val: uint64(n), args: c.single(a)})
}

// Ult returns the unsigned comparison a < b.
func (c *Context) Ult(a, b *Term) *Term {
	c.wantSort(a, SortBV)
	c.wantSort(b, SortBV)
	if a.width != b.width {
		panic("smt: width mismatch in Ult")
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val < b.val)
	}
	return c.mk(Term{op: OpBVUlt, sort: SortBool, args: c.pair(a, b)})
}

// Ule returns the unsigned comparison a <= b.
func (c *Context) Ule(a, b *Term) *Term {
	c.wantSort(a, SortBV)
	c.wantSort(b, SortBV)
	if a.width != b.width {
		panic("smt: width mismatch in Ule")
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.val <= b.val)
	}
	return c.mk(Term{op: OpBVUle, sort: SortBool, args: c.pair(a, b)})
}

// Ugt returns a > b.
func (c *Context) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// Uge returns a >= b.
func (c *Context) Uge(a, b *Term) *Term { return c.Ule(b, a) }

// Extract returns bits hi..lo (inclusive) of a, a bit-vector of width
// hi-lo+1.
func (c *Context) Extract(a *Term, hi, lo int) *Term {
	c.wantSort(a, SortBV)
	if lo < 0 || hi < lo || hi >= a.width {
		panic(fmt.Sprintf("smt: extract [%d:%d] out of range for width %d", hi, lo, a.width))
	}
	w := hi - lo + 1
	if a.op == OpBVConst {
		return c.BVConst(w, a.val>>uint(lo))
	}
	return c.mk(Term{
		op: OpBVExtract, sort: SortBV, width: w,
		val: uint64(hi)<<8 | uint64(lo), args: c.single(a),
	})
}

// Concat returns the concatenation hi ++ lo, with hi occupying the most
// significant bits.
func (c *Context) Concat(hi, lo *Term) *Term {
	c.wantSort(hi, SortBV)
	c.wantSort(lo, SortBV)
	w := hi.width + lo.width
	checkWidth(w)
	if hi.op == OpBVConst && lo.op == OpBVConst {
		return c.BVConst(w, hi.val<<uint(lo.width)|lo.val)
	}
	return c.mk(Term{op: OpBVConcat, sort: SortBV, width: w, args: c.pair(hi, lo)})
}

// ZeroExtend widens a to the given width by padding with zero bits.
func (c *Context) ZeroExtend(a *Term, width int) *Term {
	c.wantSort(a, SortBV)
	if width < a.width {
		panic("smt: ZeroExtend to smaller width")
	}
	if width == a.width {
		return a
	}
	return c.Concat(c.BVConst(width-a.width, 0), a)
}

// Distinct returns the pairwise-disequality of the given terms.
func (c *Context) Distinct(ts ...*Term) *Term {
	var conj []*Term
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			conj = append(conj, c.Not(c.Eq(ts[i], ts[j])))
		}
	}
	return c.And(conj...)
}

func (c *Context) wantSort(t *Term, s Sort) {
	if t.sort != s {
		panic(fmt.Sprintf("smt: expected sort %v, got %v in %s", s, t.sort, t))
	}
}
