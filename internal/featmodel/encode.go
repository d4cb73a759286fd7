package featmodel

import (
	"fmt"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// Encoding is the CNF of one feature model, written straight from the
// model's structure by AppendClauses: feature Names()[i] is variable
// i+1, auxiliary variables follow the features, and the clauses sit
// back to back in one arena. Model.Encoding builds it once per model.
// It is immutable and safe for concurrent use; every session the model
// seeds (PresenceEncoder, Analyzer, MultiAnalyzer) copies its clauses
// instead of encoding the model again.
type Encoding struct {
	vars    map[string]logic.Var // feature name → variable
	names   []string             // names[v-1] is the feature of variable v
	numVars int                  // feature and auxiliary variables
	clauses []logic.Lit          // each clause terminated by a 0
}

// Encoding returns the model's CNF encoding, building it on first use.
// The model must not be modified once it has been encoded. The error
// reports a cross-tree constraint over a feature the model lacks,
// possible only for a model changed after NewModel validated it.
func (m *Model) Encoding() (*Encoding, error) {
	m.encOnce.Do(func() {
		var pool logic.Pool
		e := newEncoder(m, make([]logic.Lit, 0, 8*len(m.order)), &pool)
		if m.encErr = e.encode(); m.encErr == nil {
			m.enc = &Encoding{vars: e.vars, names: m.order, numVars: pool.NumVars(), clauses: e.dst}
		}
	})
	return m.enc, m.encErr
}

// mustEncoding is Encoding for the entry points documented to panic on
// a malformed model.
func (m *Model) mustEncoding() *Encoding {
	enc, err := m.Encoding()
	if err != nil {
		panic(err)
	}
	return enc
}

// newSolver returns a fresh solver seeded with the encoding's clauses.
func (enc *Encoding) newSolver() *sat.Solver {
	s := sat.New()
	s.AddClauses(enc.numVars, enc.clauses)
	return s
}

// decode returns the configuration of a feature bitset laid out as
// PresenceEncoder.AppendModel lays it out: exactly the features whose
// bit is set.
func (enc *Encoding) decode(bits []uint64) Configuration {
	cfg := make(Configuration, len(enc.names))
	for i, name := range enc.names {
		if bits[i/64]&(1<<(i%64)) != 0 {
			cfg[name] = true
		}
	}
	return cfg
}

// AppendClauses appends the model's CNF to dst, each clause terminated
// by a 0 literal, and returns the extended arena. The features take the
// next len(Names()) variables of pool in depth-first order, and
// auxiliary variables are drawn from pool after them. The clauses are
// those of ToFormula's FODA semantics, written directly:
//
//   - the root as a unit clause;
//   - child → parent, and parent → child for a mandatory AND child;
//   - parent → c1 ∨ … ∨ cn for an OR or XOR group;
//   - at most one child of a XOR group, by
//     logic.AppendAtMostOneSequential: pairwise up to four children, a
//     sequential counter above, so the clause count of a hostile model
//     grows linearly with its group sizes;
//   - a cross-tree constraint that is a conjunction of clauses as those
//     clauses, and any other as one Tseitin definition literal asserted
//     by a unit clause.
//
// Projected onto the feature variables, its models are exactly those of
// ToFormula. The error is Encoding's.
func (m *Model) AppendClauses(dst []logic.Lit, pool *logic.Pool) ([]logic.Lit, error) {
	e := newEncoder(m, dst, pool)
	err := e.encode()
	return e.dst, err
}

type encoder struct {
	m    *Model
	pool *logic.Pool
	vars map[string]logic.Var
	dst  []logic.Lit
	buf  []logic.Lit // a XOR group's children
}

func newEncoder(m *Model, dst []logic.Lit, pool *logic.Pool) *encoder {
	vars := make(map[string]logic.Var, len(m.order))
	for _, name := range m.order {
		vars[name] = pool.Fresh()
	}
	return &encoder{m: m, pool: pool, vars: vars, dst: dst}
}

func (e *encoder) lit(name string) logic.Lit { return logic.Lit(e.vars[name]) }

func (e *encoder) encode() error {
	m := e.m
	e.dst = append(e.dst, e.lit(m.Root.Name), 0)
	for _, name := range m.order {
		f, p := m.features[name], e.lit(name)
		for _, c := range f.Children {
			e.dst = append(e.dst, -e.lit(c.Name), p, 0)
		}
		if len(f.Children) == 0 {
			continue
		}
		switch f.Group {
		case GroupOr, GroupXor:
			e.dst = append(e.dst, -p)
			e.buf = e.buf[:0]
			for _, c := range f.Children {
				e.buf = append(e.buf, e.lit(c.Name))
			}
			e.dst = append(append(e.dst, e.buf...), 0)
			if f.Group == GroupXor {
				e.dst = logic.AppendAtMostOneSequential(e.dst, e.buf, e.pool)
			}
		default: // GroupAnd
			for _, c := range f.Children {
				if c.Mandatory {
					e.dst = append(e.dst, -p, e.lit(c.Name), 0)
				}
			}
		}
	}
	for _, c := range m.Constraints {
		mark := len(e.dst)
		if e.appendClauses(c, true) {
			continue
		}
		e.dst = e.dst[:mark]
		f, err := c.ToFormula(func(name string) (logic.Var, bool) {
			v, ok := e.vars[name]
			return v, ok
		})
		if err != nil {
			return fmt.Errorf("featmodel: %w", err)
		}
		var cnf logic.CNF
		d := logic.Tseitin(f, e.pool, &cnf)
		for _, cl := range cnf.Clauses {
			e.dst = append(append(e.dst, cl...), 0)
		}
		e.dst = append(e.dst, d, 0)
	}
	return nil
}

// appendClauses appends x (its negation when !pos) as clauses when it
// is a conjunction of clauses over model features, and reports whether
// it was; on false the caller discards what was appended.
func (e *encoder) appendClauses(x *Expr, pos bool) bool {
	switch {
	case x.Kind == ExprNot:
		return e.appendClauses(x.Args[0], !pos)
	case x.Kind == ExprAnd && pos, x.Kind == ExprOr && !pos:
		return e.appendClauses(x.Args[0], pos) && e.appendClauses(x.Args[1], pos)
	case x.Kind == ExprImplies && !pos: // ¬(a → b) = a ∧ ¬b
		return e.appendClauses(x.Args[0], true) && e.appendClauses(x.Args[1], false)
	}
	if !e.appendLits(x, pos) {
		return false
	}
	e.dst = append(e.dst, 0)
	return true
}

// appendLits appends the literals of x (of its negation when !pos) when
// it is a disjunction of feature literals, and reports whether it was.
func (e *encoder) appendLits(x *Expr, pos bool) bool {
	switch {
	case x.Kind == ExprVar:
		v, ok := e.vars[x.Name]
		if !ok {
			return false // unknown: the Tseitin path reports it
		}
		l := logic.Lit(v)
		if !pos {
			l = -l
		}
		e.dst = append(e.dst, l)
		return true
	case x.Kind == ExprNot:
		return e.appendLits(x.Args[0], !pos)
	case x.Kind == ExprOr && pos, x.Kind == ExprAnd && !pos:
		return e.appendLits(x.Args[0], pos) && e.appendLits(x.Args[1], pos)
	case x.Kind == ExprImplies && pos:
		return e.appendLits(x.Args[0], false) && e.appendLits(x.Args[1], true)
	}
	return false
}
