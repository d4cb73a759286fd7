// Package constraints implements llhsc's three constraint families
// (Section IV of the paper):
//
//   - resource-allocation constraints over multi-product feature models
//     (Section IV-A). Every VM configuration is complete, so the check
//     is ground evaluation in internal/featmodel; a test-only oracle
//     keeps the multi-VM CNF encoding and holds the evaluator to it,
//   - syntactic constraints derived from dt-schema-style binding
//     schemas: the axioms (1)–(3) and proof obligations (4)–(6) of
//     Section IV-B. The instance is ground, so each named rule is
//     decided by evaluating it on the node, in internal/schema's
//     evaluator, which the dt-schema baseline shares; a test-only oracle
//     keeps the SMT encoding and holds the evaluator to it,
//   - semantic constraints: non-overlap of address regions with a
//     counterexample witness (Section IV-C, formula (7)). The regions
//     are concrete, so exact word arithmetic decides the bit-vector
//     query; a test-only bit-blasting oracle holds it to the encoding.
//     The interrupt-uniqueness and /memreserve/ extensions are decided
//     the same way, against their own test-only SMT oracles.
//
// Enumerative checking runs one table of per-tree families, Families,
// in report order; every caller loops over it. Each family reads one
// TreeFacts, whose region walk is made once and shared, as
// LiftedChecker's one region collection serves its families. The
// checker types are thin entry points over the table's functions.
//
// The overlap, interrupt and memreserve rules are each written once,
// over guarded facts, and serve both the enumerative families and
// LiftedChecker (guarded.go). The schema rules are written once in
// schema.Schema.Check and serve the baseline and SyntacticChecker;
// LiftedChecker calls its two parts, Missing and CheckProperty, one
// property option at a time.
//
// Violations carry blame: the delta module that produced the offending
// node or property (via dts.Origin.Delta), realizing the traceability
// goal of Section III-B.
//
// # Concurrency contract
//
// Checker values are cheap façades, and no checker builds an SMT
// solver. The per-tree checks are evaluation and word arithmetic over
// the call's own stack, so a checker value may be used from multiple
// goroutines. Three exceptions hold state and need one per goroutine:
// SemanticChecker keeps LastStats, a TreeFacts keeps its regions once
// collected, and LiftedChecker owns one incremental SAT session per
// CheckContext call. Schema sets and
// parsed trees are read-only during checking and safe to share.
package constraints

import (
	"context"

	"llhsc/internal/dts"
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
//     R(p) → val(p) = const / enum (constraints (1)–(3)), the axioms
//     node → ¬R(p) for properties an additionalProperties: false schema
//     does not allow, and the arity/type/const rules for the present
//     properties as ground facts.
//
// The binding obligations fix every R(p) and val(p) a rule reads, so
// the instance is ground: a named rule is violated exactly when it is
// false under those values, and schema.Schema.Check decides each one by
// evaluation. That is the verdict the paper's unsat-core loop reaches
// (report the core, disable it, re-check) without building a solver;
// syntactic_oracle_test.go keeps the encoding and requires identical
// violations. Every independent violation is reported.
//
// The checker walks the tree with schema.Set.ValidateContext, the
// baseline's own walk, and names each violation's rule.
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

// CheckContext is Check under a context; a non-nil error (ctx.Err())
// means cancellation cut the tree walk short, and the violations found
// so far are still returned.
func (c *SyntacticChecker) CheckContext(ctx context.Context, tree *dts.Tree) ([]Violation, error) {
	vs, err := c.Schemas.ValidateContext(ctx, tree)
	var out []Violation
	if len(vs) > 0 {
		out = make([]Violation, len(vs))
		for i, v := range vs {
			out[i] = schemaViolation(v)
		}
	}
	return out, err
}

// schemaViolation names a schema rule failure as the rule
// "schema:<id>:<kind>:<property>".
func schemaViolation(v schema.Violation) Violation {
	return Violation{
		Path: v.Path, Property: v.Property,
		Rule:    "schema:" + v.SchemaID + ":" + v.Kind + ":" + v.Property,
		Message: v.Message, Origin: v.Origin,
	}
}
