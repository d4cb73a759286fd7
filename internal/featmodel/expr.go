package featmodel

import (
	"fmt"
	"slices"
	"strings"

	"llhsc/internal/logic"
)

// Expr is a propositional expression over feature names, used for
// cross-tree constraints and for delta activation conditions (the
// "when" clauses of Listing 4, parsed by internal/delta with this
// parser).
type Expr struct {
	Kind ExprKind
	Name string // for ExprVar
	Args []*Expr
}

// ExprKind discriminates expression nodes.
type ExprKind int

// Expression node kinds.
const (
	ExprVar ExprKind = iota + 1
	ExprNot
	ExprAnd
	ExprOr
	ExprImplies
)

// Var returns a feature-variable expression.
func Var(name string) *Expr { return &Expr{Kind: ExprVar, Name: name} }

// Not returns the negation of e.
func Not(e *Expr) *Expr { return &Expr{Kind: ExprNot, Args: []*Expr{e}} }

// And returns the conjunction of a and b.
func And(a, b *Expr) *Expr { return &Expr{Kind: ExprAnd, Args: []*Expr{a, b}} }

// Or returns the disjunction of a and b.
func Or(a, b *Expr) *Expr { return &Expr{Kind: ExprOr, Args: []*Expr{a, b}} }

// Implies returns a → b.
func Implies(a, b *Expr) *Expr { return &Expr{Kind: ExprImplies, Args: []*Expr{a, b}} }

// AndOpt conjoins two optional guard expressions, where nil stands for
// "true" (unconditionally present). The lifted checking machinery
// composes presence conditions with these helpers so that fully
// unconditional artifacts keep a nil guard and cost nothing to encode.
func AndOpt(a, b *Expr) *Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return And(a, b)
}

// OrOpt disjoins two optional guard expressions (nil = "true"); the
// result is nil whenever either side is unconditional.
func OrOpt(a, b *Expr) *Expr {
	if a == nil || b == nil {
		return nil
	}
	return Or(a, b)
}

// EvalOpt evaluates an optional guard expression (nil = "true").
func EvalOpt(e *Expr, selected map[string]bool) bool {
	if e == nil {
		return true
	}
	return e.Eval(selected)
}

// Names returns the feature names mentioned by the expression, each
// once, in order of first mention.
func (e *Expr) Names() []string {
	var out []string
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.Kind == ExprVar {
			if !slices.Contains(out, x.Name) {
				out = append(out, x.Name)
			}
			return
		}
		for _, a := range x.Args {
			walk(a)
		}
	}
	walk(e)
	return out
}

// Eval evaluates the expression under a selection set.
func (e *Expr) Eval(selected map[string]bool) bool {
	switch e.Kind {
	case ExprVar:
		return selected[e.Name]
	case ExprNot:
		return !e.Args[0].Eval(selected)
	case ExprAnd:
		return e.Args[0].Eval(selected) && e.Args[1].Eval(selected)
	case ExprOr:
		return e.Args[0].Eval(selected) || e.Args[1].Eval(selected)
	case ExprImplies:
		return !e.Args[0].Eval(selected) || e.Args[1].Eval(selected)
	default:
		panic(fmt.Sprintf("featmodel: unknown expr kind %d", e.Kind))
	}
}

// ToFormula compiles the expression to propositional logic using the
// given variable lookup. Unknown names yield an error.
func (e *Expr) ToFormula(lookup func(name string) (logic.Var, bool)) (*logic.Formula, error) {
	switch e.Kind {
	case ExprVar:
		v, ok := lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("featmodel: unknown feature %q in constraint", e.Name)
		}
		return logic.V(v), nil
	case ExprNot:
		f, err := e.Args[0].ToFormula(lookup)
		if err != nil {
			return nil, err
		}
		return logic.Not(f), nil
	case ExprAnd, ExprOr, ExprImplies:
		a, err := e.Args[0].ToFormula(lookup)
		if err != nil {
			return nil, err
		}
		b, err := e.Args[1].ToFormula(lookup)
		if err != nil {
			return nil, err
		}
		switch e.Kind {
		case ExprAnd:
			return logic.And(a, b), nil
		case ExprOr:
			return logic.Or(a, b), nil
		default:
			return logic.Implies(a, b), nil
		}
	default:
		panic(fmt.Sprintf("featmodel: unknown expr kind %d", e.Kind))
	}
}

// String renders the expression in the delta-DSL syntax.
func (e *Expr) String() string {
	switch e.Kind {
	case ExprVar:
		return e.Name
	case ExprNot:
		return "!" + e.Args[0].atomString()
	case ExprAnd:
		return e.Args[0].atomString() + " && " + e.Args[1].atomString()
	case ExprOr:
		return e.Args[0].atomString() + " || " + e.Args[1].atomString()
	case ExprImplies:
		return e.Args[0].atomString() + " -> " + e.Args[1].atomString()
	default:
		return "?"
	}
}

func (e *Expr) atomString() string {
	if e.Kind == ExprVar || e.Kind == ExprNot {
		return e.String()
	}
	return "(" + e.String() + ")"
}

// ParseExpr parses expressions of the form used by the paper's delta
// "when" clauses and cross-tree constraints:
//
//	veth0 || veth1
//	cpu@0 && !cpu@1
//	veth0 -> cpu@0
//
// Precedence (loosest to tightest): -> , ||, &&, !.
func ParseExpr(src string) (*Expr, error) {
	p := &exprParser{src: src}
	p.skipSpace()
	e, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("featmodel: trailing input %q in expression", p.src[p.pos:])
	}
	return e, nil
}

// MustParseExpr is ParseExpr panicking on error; for fixed expressions
// in tests and examples.
func MustParseExpr(src string) *Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) parseImplies() (*Expr, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "->") {
		p.pos += 2
		p.skipSpace()
		right, err := p.parseImplies() // right-associative
		if err != nil {
			return nil, err
		}
		return Implies(left, right), nil
	}
	return left, nil
}

func (p *exprParser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !strings.HasPrefix(p.src[p.pos:], "||") {
			return left, nil
		}
		p.pos += 2
		p.skipSpace()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
}

func (p *exprParser) parseAnd() (*Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !strings.HasPrefix(p.src[p.pos:], "&&") {
			return left, nil
		}
		p.pos += 2
		p.skipSpace()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
}

func (p *exprParser) parseUnary() (*Expr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("featmodel: unexpected end of expression")
	}
	switch p.src[p.pos] {
	case '!':
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(e), nil
	case '(':
		p.pos++
		e, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("featmodel: missing ')' in expression")
		}
		p.pos++
		return e, nil
	}
	start := p.pos
	for p.pos < len(p.src) && isFeatureNameByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("featmodel: unexpected character %q in expression", p.src[p.pos])
	}
	return Var(p.src[start:p.pos]), nil
}

func isFeatureNameByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	case c == '_' || c == '-' || c == '@' || c == '.' || c == '/':
		return true
	default:
		return false
	}
}
