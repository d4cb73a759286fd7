package constraints

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
	"llhsc/internal/smt"
)

// This file is the syntactic checker's test oracle: the Section IV-B
// encoding taken literally. For one (node, schema) pair it asserts the
// binding obligations (4)–(6), every named schema axiom (1)–(3), the
// axiom node → ¬R(p) for each property an additionalProperties: false
// schema does not allow, and the ground facts for the present
// properties (arity, type, pattern, an integer const, and a string
// const on a value with no string) on a fresh solver, reports the unsat
// core's rules as violations, disables them and re-checks until the
// instance is satisfiable. The production evaluator (schema.Schema.Check,
// with its violations named by schemaViolation) must reproduce its
// violations exactly: rule, property, message and origin.
// TestSyntacticMatchesOracle holds it to that.
//
// The encoding couples rules only through val(p), which the obligations
// leave free when a present property has no string; a string const on
// such a value is then decided by its ground fact, while enum and
// pattern hold vacuously. The one schema shape where the coupling
// matters — a const outside the same property's enum — is
// self-contradictory, appears in no schema the suites use, and is
// decided per rule by the evaluator.

// oracleRule is one named schema axiom with its diagnosis.
type oracleRule struct {
	name     string
	property string
	message  string
	// assert adds the axiom to a freshly built solver.
	assert func(ctx *smt.Context, solver *smt.Solver)
}

// oracleCheckNodeSyntax runs the Section IV-B encoding for one
// (node, schema) pair, iterating unsat cores to surface every
// independent violation. stride is the parent's #address-cells +
// #size-cells.
func oracleCheckNodeSyntax(t testing.TB, n *dts.Node, stride int, path string, sc *schema.Schema) []Violation {
	t.Helper()
	rules := oracleSchemaRules(n, stride, sc)
	ruleByName := make(map[string]oracleRule, len(rules))
	for _, r := range rules {
		ruleByName[r.name] = r
	}

	disabled := make(map[string]bool)
	var out []Violation
	for iter := 0; iter <= len(rules); iter++ {
		sctx := smt.NewContext()
		solver := smt.NewSolver(sctx)
		oracleBindingObligations(sctx, solver, n, sc)
		for _, r := range rules {
			if !disabled[r.name] {
				r.assert(sctx, solver)
			}
		}
		switch solver.Check() {
		case sat.Sat:
			return out
		case sat.Unknown:
			t.Fatal("syntactic oracle solver returned Unknown")
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
			t.Fatalf("%s: unexplained inconsistency: %v", path, solver.UnsatNames())
		}
	}
	return out
}

// oracleBindingObligations adds constraints (4)–(6): the closure over
// present properties and the literal value equations.
func oracleBindingObligations(ctx *smt.Context, solver *smt.Solver, n *dts.Node, sc *schema.Schema) {
	for _, name := range oraclePropertyUniverse(n, sc) {
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

// oraclePropertyUniverse is the quantification domain for ∀x: schema
// properties, required properties and instance properties, sorted. A
// required property the schema does not list under properties still
// needs its R(x) bound, or node → R(x) is trivially satisfiable.
func oraclePropertyUniverse(n *dts.Node, sc *schema.Schema) []string {
	set := make(map[string]bool, len(sc.Properties)+len(sc.Required)+len(n.Properties))
	for name := range sc.Properties {
		set[name] = true
	}
	for _, name := range sc.Required {
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

// oracleSchemaRules derives the named axioms (1)–(3), the
// additional-property axioms and the ground facts from the schema for
// the given node instance.
func oracleSchemaRules(n *dts.Node, stride int, sc *schema.Schema) []oracleRule {
	var rules []oracleRule
	add := func(name, property, message string, assert func(ctx *smt.Context, solver *smt.Solver)) {
		rules = append(rules, oracleRule{name: name, property: property, message: message, assert: assert})
	}

	for _, req := range sc.Required {
		req := req
		rule := fmt.Sprintf("schema:%s:required:%s", sc.ID, req)
		add(rule, req, "required property is missing",
			func(ctx *smt.Context, solver *smt.Solver) {
				solver.AssertNamed(rule, ctx.Implies(ctx.BoolVar("node"), ctx.BoolVar("R:"+req)))
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
			// val(p) is unbound on a present value with no string, so the
			// axiom alone would hold there; the const then fails as a
			// ground fact.
			noString := p != nil && len(p.Value.Strings()) == 0
			rule := fmt.Sprintf("schema:%s:const:%s", sc.ID, name)
			add(rule, name, fmt.Sprintf("value does not match const %q", constVal),
				func(ctx *smt.Context, solver *smt.Solver) {
					solver.AssertNamed(rule, ctx.Implies(ctx.BoolVar("R:"+name),
						ctx.Eq(ctx.StrVar("val:"+name), ctx.StrConst(constVal))))
					if noString {
						solver.AssertNamed(rule, ctx.Bool(false))
					}
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
		if ps.ConstU32 != nil {
			want := *ps.ConstU32
			ground("const", fmt.Sprintf("cell value does not match const %d", want),
				len(cells) > 0 && cells[0] == want)
		}
		if ps.RegLike {
			stride := max(stride, 1)
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

	// node → ¬R(p) for each present property the schema does not allow.
	if !sc.AdditionalProperties && len(sc.Properties) > 0 {
		for _, p := range n.Properties {
			name := p.Name
			if _, ok := sc.Properties[name]; ok || oracleStandardProperty(name) {
				continue
			}
			rule := fmt.Sprintf("schema:%s:additional:%s", sc.ID, name)
			add(rule, name, "property not allowed by schema",
				func(ctx *smt.Context, solver *smt.Solver) {
					solver.AssertNamed(rule, ctx.Implies(ctx.BoolVar("node"), ctx.Not(ctx.BoolVar("R:"+name))))
				})
		}
	}
	return rules
}

// oracleStandardProperty reports the properties every schema allows:
// the standard set and any #-prefixed cell-size property.
func oracleStandardProperty(name string) bool {
	switch name {
	case "#address-cells", "#size-cells", "compatible", "status", "phandle", "device_type", "reg":
		return true
	}
	return strings.HasPrefix(name, "#")
}
