package logic

import (
	"strings"
	"testing"
	"testing/quick"
)

// satisfiableBrute reports whether the CNF has a satisfying assignment,
// by exhaustive search. Only usable for small variable counts.
func satisfiableBrute(c *CNF) bool {
	n := c.NumVars
	if n > 22 {
		panic("satisfiableBrute: too many variables")
	}
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		if evalCNF(c, mask) {
			return true
		}
	}
	return false
}

func evalCNF(c *CNF, mask uint64) bool {
	for _, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			val := mask&(1<<uint(l.Var()-1)) != 0
			if val == l.Positive() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// satisfiableFormulaBrute reports satisfiability of f by exhaustive search.
func satisfiableFormulaBrute(f *Formula) bool {
	vars := f.Vars()
	if len(vars) > 20 {
		panic("too many variables")
	}
	for mask := uint64(0); mask < 1<<uint(len(vars)); mask++ {
		env := make(map[Var]bool, len(vars))
		for i, v := range vars {
			env[v] = mask&(1<<uint(i)) != 0
		}
		if f.Eval(env) {
			return true
		}
	}
	return false
}

func TestToCNFEquisatisfiable(t *testing.T) {
	prop := func(seed uint64) bool {
		f := randomFormula(seed, 3, 3)
		pool := NewPool()
		cnf := ToCNF(f, pool)
		if cnf.NumVars > 20 {
			// brute force would be too slow; skip this instance (the
			// surrounding MaxCount keeps plenty of checked cases)
			return true
		}
		return satisfiableBrute(cnf) == satisfiableFormulaBrute(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestToCNFPreservesModels(t *testing.T) {
	// For every assignment of the original variables, the Tseitin CNF
	// restricted to that assignment must be satisfiable (extendable to
	// the aux vars) exactly when the formula holds.
	f := And(Or(V(1), Not(V(2))), Iff(V(2), V(3)), Not(And(V(1), V(3))))
	pool := NewPool()
	cnf := ToCNF(f, pool)
	for mask := uint64(0); mask < 8; mask++ {
		env := assignFromBits(3, mask)
		// Fix vars 1..3 via unit clauses, then test extension.
		fixed := &CNF{NumVars: cnf.NumVars, Clauses: append([]Clause{}, cnf.Clauses...)}
		for v, val := range env {
			l := Lit(v)
			if !val {
				l = l.Neg()
			}
			fixed.AddClause(l)
		}
		if got, want := satisfiableBrute(fixed), f.Eval(env); got != want {
			t.Errorf("mask %03b: CNF extendable=%v, formula=%v", mask, got, want)
		}
	}
}

func TestToCNFTrivial(t *testing.T) {
	pool := NewPool()
	if !satisfiableBrute(ToCNF(True(), pool)) {
		t.Error("CNF of true should be satisfiable")
	}
	pool2 := NewPool()
	if satisfiableBrute(ToCNF(False(), pool2)) {
		t.Error("CNF of false should be unsatisfiable")
	}
}

func TestPoolFreshAndReserve(t *testing.T) {
	p := NewPool()
	if v := p.Fresh(); v != 1 {
		t.Fatalf("first Fresh = %d, want 1", v)
	}
	p.Reserve(10)
	if v := p.Fresh(); v != 11 {
		t.Fatalf("Fresh after Reserve(10) = %d, want 11", v)
	}
	p.Reserve(5) // no-op: already past 5
	if v := p.Fresh(); v != 12 {
		t.Fatalf("Fresh = %d, want 12", v)
	}
	if p.NumVars() != 12 {
		t.Fatalf("NumVars = %d, want 12", p.NumVars())
	}
}

func TestCNFString(t *testing.T) {
	var c CNF
	c.AddClause(1, -2)
	c.AddClause(3)
	s := c.String()
	if !strings.HasPrefix(s, "p cnf 3 2\n") {
		t.Errorf("unexpected DIMACS header: %q", s)
	}
	if !strings.Contains(s, "1 -2 0") || !strings.Contains(s, "3 0") {
		t.Errorf("unexpected DIMACS body: %q", s)
	}
}

func countTrue(lits []Lit, mask uint64) int {
	n := 0
	for _, l := range lits {
		val := mask&(1<<uint(l.Var()-1)) != 0
		if val == l.Positive() {
			n++
		}
	}
	return n
}

// arenaCNF returns the clauses of a clause arena as a CNF over
// variables 1..numVars.
func arenaCNF(arena []Lit, numVars int) *CNF {
	cnf := &CNF{NumVars: numVars}
	start := 0
	for i, l := range arena {
		if l == 0 {
			cnf.AddClause(arena[start:i]...)
			start = i + 1
		}
	}
	return cnf
}

func TestAtMostOneEncodings(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		lits := make([]Lit, n)
		for i := range lits {
			lits[i] = Lit(i + 1)
		}

		t.Run("pairwise", func(t *testing.T) {
			cnf := arenaCNF(AppendAtMostOnePairwise(nil, lits), n)
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				want := countTrue(lits, mask) <= 1
				// Pairwise has no aux vars: direct evaluation.
				if got := evalCNF(cnf, mask); got != want {
					t.Fatalf("n=%d mask=%b: got %v, want %v", n, mask, got, want)
				}
			}
		})

		t.Run("sequential", func(t *testing.T) {
			pool := NewPool()
			pool.Reserve(Var(n))
			cnf := arenaCNF(AppendAtMostOneSequential(nil, lits, pool), pool.NumVars())
			// With aux vars: check extendability per original assignment.
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				fixed := &CNF{NumVars: cnf.NumVars, Clauses: append([]Clause{}, cnf.Clauses...)}
				if fixed.NumVars < n {
					fixed.NumVars = n
				}
				for i := 0; i < n; i++ {
					l := Lit(i + 1)
					if mask&(1<<uint(i)) == 0 {
						l = l.Neg()
					}
					fixed.AddClause(l)
				}
				want := countTrue(lits, mask) <= 1
				if got := satisfiableBrute(fixed); got != want {
					t.Fatalf("n=%d mask=%b: got %v, want %v", n, mask, got, want)
				}
			}
		})
	}
}
