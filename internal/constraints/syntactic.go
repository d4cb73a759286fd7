// Package constraints implements llhsc's three constraint families
// (Section IV of the paper):
//
//   - resource-allocation constraints over multi-product feature models
//     (Section IV-A; thin veneer over internal/featmodel),
//   - syntactic constraints derived from dt-schema-style binding
//     schemas, encoded as the axioms (1)–(3) and proof obligations
//     (4)–(6) of Section IV-B and discharged by the SMT solver in
//     internal/smt,
//   - semantic constraints: non-overlap of address regions with a
//     counterexample witness (Section IV-C, formula (7)). The regions
//     are concrete, so exact word arithmetic decides the bit-vector
//     query; a test-only bit-blasting oracle holds it to the encoding.
//
// Violations carry blame: the delta module that produced the offending
// node or property (via dts.Origin.Delta), realizing the traceability
// goal of Section III-B.
//
// # Concurrency contract
//
// Checker values are cheap façades over an smt.Context + smt.Solver
// built fresh inside each Check call, so a single checker value may be
// used from multiple goroutines as long as each call gets its own
// stack: Check/CheckContext never share solver state across calls. The
// parallel pipeline in internal/core still constructs one checker set
// per worker for clarity, but the hard requirement is only the one
// documented on smt.Solver — never drive one Solver from two
// goroutines. Schema sets and parsed trees are read-only during
// checking and safe to share. The exception is SemanticChecker, which
// records LastStats on the checker value: give each goroutine its own.
package constraints

import (
	"context"
	"fmt"
	"sort"

	"llhsc/internal/dts"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
	"llhsc/internal/smt"
)

// Violation is one constraint-check failure.
type Violation struct {
	Path     string // node path
	Property string // offending property, if known
	Rule     string // identifier of the violated rule
	Message  string
	Origin   dts.Origin // includes the responsible delta, if any
}

func (v Violation) String() string {
	b := v.Path
	if v.Property != "" {
		b += " property " + v.Property
	}
	b += ": " + v.Message
	if v.Rule != "" {
		b += " [" + v.Rule + "]"
	}
	if v.Origin.Delta != "" {
		b += " (introduced by delta " + v.Origin.Delta + ")"
	}
	return b
}

// SyntacticChecker verifies DT bindings against binding schemas by
// encoding schema axioms and instance proof obligations as an SMT
// problem, following Section IV-B:
//
//   - presence predicates R(x) become one Boolean variable per
//     (node, property-name) pair,
//   - the binding instance contributes the closure C(x) ↔ x present
//     and the equations val(p) = "literal" (constraints (4)–(6)),
//   - each schema contributes required-property axioms node → R(p),
//     value axioms R(p) → val(p) = const / enum (constraints (1)–(3)),
//     and the arity rules for reg-like arrays as ground facts.
//
// Unsatisfiability pinpoints the violated axioms via named assertions;
// violated schema rules are then disabled and the node re-checked so
// that every independent violation is reported.
type SyntacticChecker struct {
	Schemas *schema.Set
}

// NewSyntacticChecker returns a checker over the given schema set.
func NewSyntacticChecker(set *schema.Set) *SyntacticChecker {
	return &SyntacticChecker{Schemas: set}
}

// Check verifies the whole tree and returns all violations in
// deterministic order.
func (c *SyntacticChecker) Check(tree *dts.Tree) []Violation {
	out, _ := c.CheckContext(context.Background(), tree)
	return out
}

// CheckContext is Check under a context; a non-nil error (a
// *sat.LimitError) means cancellation cut the tree walk short, and the
// violations found so far are still returned.
func (c *SyntacticChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Violation, error) {
	var out []Violation
	var werr error
	var walk func(parent *dts.Node, path string) bool
	walk = func(parent *dts.Node, path string) bool {
		for _, n := range parent.Children {
			childPath := path + "/" + n.Name
			for _, sc := range c.Schemas.For(n) {
				vs, err := checkNodeSyntax(ctx, n, parent, childPath, sc)
				out = append(out, vs...)
				if err != nil {
					werr = err
					return false
				}
			}
			if !walk(n, childPath) {
				return false
			}
		}
		return true
	}
	walk(tree.Root, "")
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		if out[i].Property != out[j].Property {
			return out[i].Property < out[j].Property
		}
		return out[i].Rule < out[j].Rule
	})
	return out, werr
}

// schemaRule is one named schema axiom with its diagnosis.
type schemaRule struct {
	name     string
	property string
	message  string
	// assert adds the axiom to a freshly built solver.
	assert func(ctx *smt.Context, solver *smt.Solver)
}

// checkNodeSyntax runs the Section IV-B encoding for one (node, schema)
// pair, iterating unsat cores to surface every independent violation.
func checkNodeSyntax(ctx context.Context, n, parent *dts.Node, path string, sc *schema.Schema) ([]Violation, error) {
	rules := buildSchemaRules(n, parent, sc)
	ruleByName := make(map[string]schemaRule, len(rules))
	for _, r := range rules {
		ruleByName[r.name] = r
	}

	disabled := make(map[string]bool)
	var out []Violation
	for iter := 0; iter <= len(rules); iter++ {
		sctx := smt.NewContext()
		solver := smt.NewSolver(sctx)
		assertBindingObligations(sctx, solver, n, sc)
		for _, r := range rules {
			if !disabled[r.name] {
				r.assert(sctx, solver)
			}
		}
		st, err := solver.CheckContext(ctx)
		if err != nil {
			return out, err
		}
		if st == sat.Sat {
			return out, nil
		}
		progressed := false
		for _, name := range solver.UnsatNames() {
			r, ok := ruleByName[name]
			if !ok || disabled[name] {
				continue
			}
			disabled[name] = true
			progressed = true
			origin := n.Origin
			if p := n.Property(r.property); p != nil {
				origin = p.Origin
			}
			out = append(out, Violation{
				Path: path, Property: r.property, Rule: r.name,
				Message: r.message, Origin: origin,
			})
		}
		if !progressed {
			out = append(out, Violation{
				Path: path, Rule: "internal",
				Message: fmt.Sprintf("unexplained inconsistency: %v", solver.UnsatNames()),
				Origin:  n.Origin,
			})
			return out, nil
		}
	}
	return out, nil
}

// assertBindingObligations adds constraints (4)–(6): the closure over
// present properties and the literal value equations.
func assertBindingObligations(ctx *smt.Context, solver *smt.Solver, n *dts.Node, sc *schema.Schema) {
	for _, name := range propertyUniverse(n, sc) {
		r := ctx.BoolVar("R:" + name)
		p := n.Property(name)
		if p == nil {
			solver.AssertNamed("binding:"+name, ctx.Not(r))
			continue
		}
		solver.AssertNamed("binding:"+name, r)
		if s := p.Value.Strings(); len(s) > 0 {
			solver.AssertNamed("binding:"+name+":value",
				ctx.Eq(ctx.StrVar("val:"+name), ctx.StrConst(s[0])))
		}
	}
	solver.Assert(ctx.BoolVar("node")) // the node was found
}

// propertyUniverse is the quantification domain for ∀x: schema
// properties plus instance properties, sorted.
func propertyUniverse(n *dts.Node, sc *schema.Schema) []string {
	set := make(map[string]bool, len(sc.Properties)+len(n.Properties))
	for name := range sc.Properties {
		set[name] = true
	}
	for _, p := range n.Properties {
		set[p.Name] = true
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildSchemaRules derives the named axioms (1)–(3) plus arity/type
// ground facts from the schema for the given node instance.
func buildSchemaRules(n, parent *dts.Node, sc *schema.Schema) []schemaRule {
	var rules []schemaRule
	add := func(name, property, message string, assert func(ctx *smt.Context, solver *smt.Solver)) {
		rules = append(rules, schemaRule{name: name, property: property, message: message, assert: assert})
	}

	for _, req := range sc.Required {
		req := req
		add(fmt.Sprintf("schema:%s:required:%s", sc.ID, req), req,
			"required property is missing",
			func(ctx *smt.Context, solver *smt.Solver) {
				solver.AssertNamed(fmt.Sprintf("schema:%s:required:%s", sc.ID, req),
					ctx.Implies(ctx.BoolVar("node"), ctx.BoolVar("R:"+req)))
			})
	}

	propNames := make([]string, 0, len(sc.Properties))
	for name := range sc.Properties {
		propNames = append(propNames, name)
	}
	sort.Strings(propNames)

	for _, name := range propNames {
		name := name
		ps := sc.Properties[name]
		p := n.Property(name)

		if ps.Const != "" {
			constVal := ps.Const
			rule := fmt.Sprintf("schema:%s:const:%s", sc.ID, name)
			add(rule, name, fmt.Sprintf("value does not match const %q", constVal),
				func(ctx *smt.Context, solver *smt.Solver) {
					solver.AssertNamed(rule, ctx.Implies(ctx.BoolVar("R:"+name),
						ctx.Eq(ctx.StrVar("val:"+name), ctx.StrConst(constVal))))
				})
		}
		if len(ps.Enum) > 0 {
			enum := ps.Enum
			rule := fmt.Sprintf("schema:%s:enum:%s", sc.ID, name)
			add(rule, name, fmt.Sprintf("value not in enum %v", enum),
				func(ctx *smt.Context, solver *smt.Solver) {
					alts := make([]*smt.Term, len(enum))
					for i, e := range enum {
						alts[i] = ctx.Eq(ctx.StrVar("val:"+name), ctx.StrConst(e))
					}
					solver.AssertNamed(rule, ctx.Implies(ctx.BoolVar("R:"+name), ctx.Or(alts...)))
				})
		}
		if p == nil {
			continue
		}

		// ground facts about the present property's shape
		cells := p.Value.U32s()
		items := len(cells)
		ground := func(kind, message string, ok bool) {
			rule := fmt.Sprintf("schema:%s:%s:%s", sc.ID, kind, name)
			add(rule, name, message, func(ctx *smt.Context, solver *smt.Solver) {
				solver.AssertNamed(rule, ctx.Bool(ok))
			})
		}
		if ps.RegLike {
			stride := parent.AddressCells() + parent.SizeCells()
			if stride == 0 {
				stride = 1
			}
			ground("arity", fmt.Sprintf("%d cells is not a multiple of #address-cells+#size-cells (%d)",
				len(cells), stride), len(cells)%stride == 0)
			items = len(cells) / stride
		}
		if ps.MinItems > 0 {
			ground("minItems", fmt.Sprintf("%d items, schema requires at least %d", items, ps.MinItems),
				items >= ps.MinItems)
		}
		if ps.MaxItems > 0 {
			ground("maxItems", fmt.Sprintf("%d items, schema allows at most %d", items, ps.MaxItems),
				items <= ps.MaxItems)
		}
		switch ps.Type {
		case schema.TypeU32:
			ground("u32", fmt.Sprintf("expected exactly one cell, found %d", len(cells)),
				len(cells) == 1)
		case schema.TypeString:
			ground("string", "expected a string value", len(p.Value.Strings()) > 0)
		case schema.TypeCells:
			ground("cells", "expected a cell array", len(cells) > 0)
		case schema.TypeBytes:
			ground("bytes", "expected a byte array", len(p.Value.Bytes()) > 0)
		case schema.TypeFlag:
			ground("flag", "expected an empty marker property", p.Value.IsEmpty())
		}
		if ps.Pattern != nil && len(p.Value.Strings()) > 0 {
			val := p.Value.Strings()[0]
			ground("pattern", fmt.Sprintf("value %q does not match pattern %s", val, ps.Pattern),
				ps.Pattern.MatchString(val))
		}
	}
	return rules
}
