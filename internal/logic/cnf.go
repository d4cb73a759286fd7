package logic

import (
	"fmt"
	"strings"
)

// Clause is a disjunction of literals.
type Clause []Lit

// CNF is a conjunction of clauses over variables 1..NumVars.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// AddClause appends a clause, growing NumVars as needed.
func (c *CNF) AddClause(lits ...Lit) {
	for _, l := range lits {
		if int(l.Var()) > c.NumVars {
			c.NumVars = int(l.Var())
		}
	}
	c.Clauses = append(c.Clauses, Clause(lits))
}

// String renders the CNF in DIMACS-like notation (for debugging).
func (c *CNF) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", c.NumVars, len(c.Clauses))
	for _, cl := range c.Clauses {
		for _, l := range cl {
			fmt.Fprintf(&b, "%d ", int(l))
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// Pool allocates propositional variables. The zero value is ready to use.
type Pool struct {
	next Var
}

// NewPool returns a pool whose first allocated variable is 1.
func NewPool() *Pool { return &Pool{} }

// Fresh allocates and returns a new variable.
func (p *Pool) Fresh() Var {
	p.next++
	return p.next
}

// Reserve ensures that variables 1..v are considered allocated, so that
// subsequent Fresh calls return variables greater than v.
func (p *Pool) Reserve(v Var) {
	if v > p.next {
		p.next = v
	}
}

// NumVars returns the number of variables allocated so far.
func (p *Pool) NumVars() int { return int(p.next) }

// Tseitin converts f into CNF using the Tseitin transform, allocating
// auxiliary variables from pool. It returns a literal whose truth is
// equivalent to f's under the produced clauses; callers that want to
// assert f should add the returned literal as a unit clause (ToCNF does
// this).
//
// The encoding uses the polarity-insensitive (full equivalence) form,
// which keeps the clause count modest while remaining correct for reuse
// of subterms in both polarities.
func Tseitin(f *Formula, pool *Pool, cnf *CNF) Lit {
	t := &tseitin{pool: pool, cnf: cnf, cache: make(map[*Formula]Lit)}
	return t.lit(f)
}

// ToCNF converts f into an equisatisfiable CNF, asserting f itself.
// Variables of f are preserved; auxiliary variables come from pool,
// which must already have all of f's variables reserved.
func ToCNF(f *Formula, pool *Pool) *CNF {
	for _, v := range f.Vars() {
		pool.Reserve(v)
	}
	cnf := &CNF{NumVars: pool.NumVars()}
	root := Tseitin(f, pool, cnf)
	cnf.AddClause(root)
	if pool.NumVars() > cnf.NumVars {
		cnf.NumVars = pool.NumVars()
	}
	return cnf
}

type tseitin struct {
	pool  *Pool
	cnf   *CNF
	cache map[*Formula]Lit

	constTrue Lit // lazily allocated literal constrained to true
}

func (t *tseitin) trueLit() Lit {
	if t.constTrue == 0 {
		v := t.pool.Fresh()
		t.constTrue = Lit(v)
		t.cnf.AddClause(t.constTrue)
	}
	return t.constTrue
}

func (t *tseitin) lit(f *Formula) Lit {
	if l, ok := t.cache[f]; ok {
		return l
	}
	var l Lit
	switch f.kind {
	case KindTrue:
		l = t.trueLit()
	case KindFalse:
		l = t.trueLit().Neg()
	case KindVar:
		l = Lit(f.v)
	case KindNot:
		l = t.lit(f.args[0]).Neg()
	case KindAnd:
		l = t.gate(f.args, true)
	case KindOr:
		l = t.gate(f.args, false)
	default:
		panic(fmt.Sprintf("logic: unknown kind %v", f.kind))
	}
	t.cache[f] = l
	return l
}

// gate encodes an AND gate (conj=true) or OR gate (conj=false) over the
// given arguments, returning the gate output literal.
func (t *tseitin) gate(args []*Formula, conj bool) Lit {
	lits := make([]Lit, len(args))
	for i, a := range args {
		lits[i] = t.lit(a)
	}
	out := Lit(t.pool.Fresh())
	if conj {
		// out -> l_i  and  (l_1 & ... & l_n) -> out
		long := make(Clause, 0, len(lits)+1)
		for _, l := range lits {
			t.cnf.AddClause(out.Neg(), l)
			long = append(long, l.Neg())
		}
		long = append(long, out)
		t.cnf.AddClause(long...)
	} else {
		// l_i -> out  and  out -> (l_1 | ... | l_n)
		long := make(Clause, 0, len(lits)+1)
		for _, l := range lits {
			t.cnf.AddClause(l.Neg(), out)
			long = append(long, l)
		}
		long = append(long, out.Neg())
		t.cnf.AddClause(long...)
	}
	return out
}

// A clause arena holds clauses back to back, each terminated by a 0
// literal, as DIMACS writes them; sat.(*Solver).AddClauses loads one.

// AppendAtMostOnePairwise appends the pairwise at-most-one encoding
// over lits to the clause arena dst: O(n²) binary clauses, no auxiliary
// variables.
func AppendAtMostOnePairwise(dst, lits []Lit) []Lit {
	for i, a := range lits {
		for _, b := range lits[i+1:] {
			dst = append(dst, a.Neg(), b.Neg(), 0)
		}
	}
	return dst
}

// pairwiseMax is the largest literal count AppendAtMostOneSequential
// encodes pairwise (at most six binary clauses).
const pairwiseMax = 4

// AppendAtMostOneSequential appends an at-most-one encoding over lits
// to the clause arena dst: pairwise up to pairwiseMax literals, and
// above that Sinz's sequential counter, 3n−4 clauses over n−1
// auxiliary variables drawn from pool, so the encoding grows linearly.
// DESIGN.md §5 benchmarks the two against each other.
func AppendAtMostOneSequential(dst, lits []Lit, pool *Pool) []Lit {
	n := len(lits)
	if n <= pairwiseMax {
		return AppendAtMostOnePairwise(dst, lits)
	}
	// s holds when some literal among lits[0..i] is true.
	s := Lit(pool.Fresh())
	dst = append(dst, lits[0].Neg(), s, 0)
	for _, l := range lits[1 : n-1] {
		next := Lit(pool.Fresh())
		dst = append(dst, l.Neg(), next, 0, s.Neg(), next, 0, l.Neg(), s.Neg(), 0)
		s = next
	}
	return append(dst, lits[n-1].Neg(), s.Neg(), 0)
}
