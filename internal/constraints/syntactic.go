// Package constraints implements llhsc's three constraint families
// (Section IV of the paper):
//
//   - resource-allocation constraints over multi-product feature models
//     (Section IV-A; thin veneer over internal/featmodel),
//   - syntactic constraints derived from dt-schema-style binding
//     schemas: the axioms (1)–(3) and proof obligations (4)–(6) of
//     Section IV-B. The instance is ground, so each named rule is
//     decided by evaluating it on the node; a test-only oracle keeps
//     the SMT encoding and holds the evaluator to it,
//   - semantic constraints: non-overlap of address regions with a
//     counterexample witness (Section IV-C, formula (7)). The regions
//     are concrete, so exact word arithmetic decides the bit-vector
//     query; a test-only bit-blasting oracle holds it to the encoding.
//     The interrupt-uniqueness and /memreserve/ extensions are decided
//     the same way, against their own test-only SMT oracles.
//
// The overlap, interrupt and memreserve rules are each written once,
// over guarded facts, and serve both the enumerative checkers and
// LiftedChecker (guarded.go).
//
// Violations carry blame: the delta module that produced the offending
// node or property (via dts.Origin.Delta), realizing the traceability
// goal of Section III-B.
//
// # Concurrency contract
//
// Checker values are cheap façades, and only one production path builds
// an SMT solver: SemanticChecker.AnyCollision (the one-shot query of
// experiment E8), which makes a fresh smt.Context + smt.Solver inside
// each call. Every other check is evaluation and word arithmetic over
// the call's own stack, so a checker value may be used from multiple
// goroutines. Two exceptions record state on the value: SemanticChecker
// keeps LastStats, and LiftedChecker owns one incremental SAT session
// per CheckContext call; give each goroutine its own. Schema sets and
// parsed trees are read-only during checking and safe to share.
package constraints

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"llhsc/internal/dts"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
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

// SyntacticChecker verifies DT bindings against binding schemas,
// following Section IV-B:
//
//   - presence predicates R(x), one per (node, property-name) pair,
//   - the binding instance's closure C(x) ↔ x present and equations
//     val(p) = "literal" (constraints (4)–(6)),
//   - each schema's required-property axioms node → R(p), value axioms
//     R(p) → val(p) = const / enum (constraints (1)–(3)), and the
//     arity/type rules for the present properties as ground facts.
//
// The binding obligations fix every R(p) and val(p) a rule reads, so
// the instance is ground: a named rule is violated exactly when it is
// false under those values, and checkNodeSyntax decides each one by
// evaluation. That is the verdict the paper's unsat-core loop reaches
// (report the core, disable it, re-check) without building a solver;
// syntactic_oracle_test.go keeps the encoding and requires identical
// violations. Every independent violation is reported.
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

// checkNodeSyntax decides every named schema rule for one (node,
// schema) pair and returns the violated ones. The instance is ground:
// the binding obligations (4)–(6) fix R(p) and val(p) for every property
// a rule reads, so each axiom (1)–(3) and each arity/type fact is
// decided by evaluating it on the node, with no solver. Rule names,
// messages and origins are those of the Section IV-B encoding, which
// syntactic_oracle_test.go keeps as the test oracle. The context is
// polled once per call; a canceled context yields a *sat.LimitError.
func checkNodeSyntax(ctx context.Context, n, parent *dts.Node, path string, sc *schema.Schema) ([]Violation, error) {
	if err := ctx.Err(); err != nil {
		return nil, &sat.LimitError{Reason: sat.StopCanceled, Err: err}
	}
	var out []Violation
	fail := func(kind, property, message string) {
		origin := n.Origin
		if p := n.Property(property); p != nil {
			origin = p.Origin
		}
		out = append(out, Violation{
			Path: path, Property: property, Rule: "schema:" + sc.ID + ":" + kind + ":" + property,
			Message: message, Origin: origin,
		})
	}

	// Axiom (1): node → R(p).
	for _, req := range sc.Required {
		if n.Property(req) == nil {
			fail("required", req, "required property is missing")
		}
	}

	names := make([]string, 0, len(sc.Properties))
	for name := range sc.Properties {
		names = append(names, name)
	}
	slices.Sort(names)

	for _, name := range names {
		ps := sc.Properties[name]
		p := n.Property(name)
		if p == nil {
			continue // R(p) is false: axioms (2)–(3) hold vacuously
		}
		cells := len(p.Value.Cells())
		strs := p.Value.Strings()
		hasString := len(strs) > 0

		// Axioms (2)–(3): R(p) → val(p) = const / ∈ enum. val(p) is bound
		// only when the value has a string; otherwise it is free and the
		// axiom is satisfiable.
		if ps.Const != "" && hasString && strs[0] != ps.Const {
			fail("const", name, fmt.Sprintf("value does not match const %q", ps.Const))
		}
		if len(ps.Enum) > 0 && hasString && !slices.Contains(ps.Enum, strs[0]) {
			fail("enum", name, fmt.Sprintf("value not in enum %v", ps.Enum))
		}

		// Ground facts about the present property's shape.
		items := cells
		if ps.RegLike {
			stride := parent.AddressCells() + parent.SizeCells()
			if stride == 0 {
				stride = 1
			}
			if cells%stride != 0 {
				fail("arity", name, fmt.Sprintf("%d cells is not a multiple of #address-cells+#size-cells (%d)",
					cells, stride))
			}
			items = cells / stride
		}
		if ps.MinItems > 0 && items < ps.MinItems {
			fail("minItems", name, fmt.Sprintf("%d items, schema requires at least %d", items, ps.MinItems))
		}
		if ps.MaxItems > 0 && items > ps.MaxItems {
			fail("maxItems", name, fmt.Sprintf("%d items, schema allows at most %d", items, ps.MaxItems))
		}
		switch ps.Type {
		case schema.TypeU32:
			if cells != 1 {
				fail("u32", name, fmt.Sprintf("expected exactly one cell, found %d", cells))
			}
		case schema.TypeString:
			if !hasString {
				fail("string", name, "expected a string value")
			}
		case schema.TypeCells:
			if cells == 0 {
				fail("cells", name, "expected a cell array")
			}
		case schema.TypeBytes:
			if len(p.Value.Bytes()) == 0 {
				fail("bytes", name, "expected a byte array")
			}
		case schema.TypeFlag:
			if !p.Value.IsEmpty() {
				fail("flag", name, "expected an empty marker property")
			}
		}
		if ps.Pattern != nil && hasString && !ps.Pattern.MatchString(strs[0]) {
			fail("pattern", name, fmt.Sprintf("value %q does not match pattern %s", strs[0], ps.Pattern))
		}
	}
	return out, nil
}
