// Package schema reimplements the dt-schema subset the llhsc paper uses
// as its baseline (Section IV-B and the comparisons of Sections I and
// IV-C): binding schemas that select device nodes by name or compatible
// string and constrain their properties structurally (required
// properties, constant values, enums, item counts, reg arity derived
// from the parent's cell sizes, and name patterns).
//
// Schema.Check is the one implementation of these rules, composed of a
// node-level part (Missing, the required rule) and a per-property part
// (CheckProperty, every other rule). Validate, the *baseline* checker,
// walks a tree with Check; llhsc's syntactic family (internal/constraints)
// calls the same walk in enumerative mode and the two parts one property
// option at a time in lifted mode. The baseline therefore
// differs from llhsc only in having no cross-node reasoning: by design
// it accepts the address-clash and truncation faults that llhsc's
// semantic checks catch (experiments E5/E6/E10 in DESIGN.md).
package schema

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"

	"llhsc/internal/dts"
)

// PropType constrains the syntactic shape of a property value.
type PropType int

// Property value types.
const (
	TypeAny    PropType = iota // no shape constraint
	TypeString                 // one or more strings
	TypeU32                    // exactly one cell
	TypeCells                  // one or more cells
	TypeBytes                  // byte array
	TypeFlag                   // empty marker property
)

func (t PropType) String() string {
	switch t {
	case TypeAny:
		return "any"
	case TypeString:
		return "string"
	case TypeU32:
		return "u32"
	case TypeCells:
		return "cells"
	case TypeBytes:
		return "bytes"
	case TypeFlag:
		return "flag"
	default:
		return fmt.Sprintf("PropType(%d)", int(t))
	}
}

// PropSchema constrains one property.
type PropSchema struct {
	Type     PropType
	Const    string         // exact string value ("" = unconstrained)
	ConstU32 *uint32        // exact cell value
	Enum     []string       // allowed string values
	Pattern  *regexp.Regexp // string value pattern
	MinItems int            // minimum items (0 = unconstrained)
	MaxItems int            // maximum items (0 = unconstrained)
	// RegLike derives the item granularity from the parent node's
	// #address-cells + #size-cells: the cell count must be a multiple
	// of that sum, and Min/MaxItems count (address,size) tuples. This
	// mirrors dt-schema's reg handling — and inherits its weakness:
	// any multiple passes, even after a cell-size change (the paper's
	// truncation example).
	RegLike bool
}

// Select decides which nodes a schema applies to.
type Select struct {
	NodeName   string   // match on node base name (without unit address)
	Compatible []string // match if the node's compatible list intersects
}

// Matches reports whether the selector applies to the node.
func (s Select) Matches(n *dts.Node) bool {
	return s.NodeName != "" && n.BaseName() == s.NodeName ||
		len(s.Compatible) > 0 && n.AnyCompatible(s.lists)
}

// lists reports whether the selector lists the compatible string c.
func (s Select) lists(c string) bool { return slices.Contains(s.Compatible, c) }

// matchesCompatible reports whether a compatible list intersects the
// selector's.
func (s Select) matchesCompatible(compatible []string) bool {
	return slices.ContainsFunc(compatible, s.lists)
}

// Schema is one binding schema.
type Schema struct {
	ID         string
	Select     Select
	Properties map[string]*PropSchema
	Required   []string
	// AdditionalProperties, when false, rejects properties not listed
	// in Properties (beyond the standard set).
	AdditionalProperties bool
}

// standardProperties are always acceptable regardless of schema.
var standardProperties = map[string]bool{
	"#address-cells": true,
	"#size-cells":    true,
	"compatible":     true,
	"status":         true,
	"phandle":        true,
	"device_type":    true,
	"reg":            true,
}

// Violation is one failed schema rule. Kind names the rule:
//
//   - required: a required property is missing,
//   - const, enum, pattern: a present value breaks a value constraint,
//   - arity, minItems, maxItems: a cell count breaks a count constraint,
//   - u32, string, cells, bytes, flag: a value has the wrong shape,
//   - additional: a property the schema does not allow is present.
//
// The rule is identified by (SchemaID, Kind, Property); llhsc reports
// it as "schema:<id>:<kind>:<property>".
type Violation struct {
	Path     string // node path
	Property string // offending property ("" for node-level problems)
	SchemaID string
	Kind     string
	Message  string
	Origin   dts.Origin
}

func (v Violation) String() string {
	if v.Property != "" {
		return fmt.Sprintf("%s: property %s: %s (schema %s)", v.Path, v.Property, v.Message, v.SchemaID)
	}
	return fmt.Sprintf("%s: %s (schema %s)", v.Path, v.Message, v.SchemaID)
}

// Set is a collection of schemas applied together. A set is read-only
// once in use: its methods are then safe for concurrent use, and
// Fingerprint is computed once.
type Set struct {
	Schemas []*Schema

	fpOnce sync.Once
	fp     string
}

// Add appends a schema to the set.
func (s *Set) Add(sc *Schema) { s.Schemas = append(s.Schemas, sc) }

// Selecting returns the schemas whose selector matches a node named
// name (unit address included) with the given compatible list.
func (s *Set) Selecting(name string, compatible []string) []*Schema {
	base, _ := dts.SplitName(name)
	var out []*Schema
	for _, sc := range s.Schemas {
		if sc.Select.NodeName != "" && base == sc.Select.NodeName || sc.Select.matchesCompatible(compatible) {
			out = append(out, sc)
		}
	}
	return out
}

// Validate checks every node of the tree against the schemas selecting
// it and returns all violations, ordered by path, property and rule.
// It performs no cross-node reasoning beyond reading each parent's cell
// sizes: it is the dt-schema-equivalent baseline, and llhsc's syntactic
// family is the same walk (constraints.SyntacticChecker).
func (s *Set) Validate(t *dts.Tree) []Violation {
	out, _ := s.ValidateContext(context.Background(), t)
	return out
}

// ValidateContext is Validate under a context, polled once per node. On
// cancellation it returns the violations found so far, ordered, with
// the context's error.
func (s *Set) ValidateContext(ctx context.Context, t *dts.Tree) ([]Violation, error) {
	var out []Violation
	var err error
	var walk func(parent *dts.Node, path string) bool
	walk = func(parent *dts.Node, path string) bool {
		if len(parent.Children) == 0 {
			return true
		}
		stride := parent.AddressCells() + parent.SizeCells()
		for _, n := range parent.Children {
			if err = ctx.Err(); err != nil {
				return false
			}
			childPath := path + "/" + n.Name
			for _, sc := range s.Schemas {
				if sc.Select.Matches(n) {
					out = append(out, sc.Check(n, stride, childPath)...)
				}
			}
			if !walk(n, childPath) {
				return false
			}
		}
		return true
	}
	walk(t.Root, "")
	slices.SortStableFunc(out, compareViolations)
	return out, err
}

// compareViolations orders by path, property, then the rule ID
// "schema:<id>:<kind>:<property>".
func compareViolations(a, b Violation) int {
	if c := strings.Compare(a.Path, b.Path); c != 0 {
		return c
	}
	if c := strings.Compare(a.Property, b.Property); c != 0 {
		return c
	}
	return strings.Compare(a.SchemaID+":"+a.Kind, b.SchemaID+":"+b.Kind)
}

// Check decides every rule of the schema for node n at path and returns
// the violated ones. stride is the parent's #address-cells +
// #size-cells, which reg-like arity rules read (0 counts as 1). Each
// rule is a test on the node's own properties, so no solver is needed.
// Check is the composition of Missing, for each required property the
// node lacks, and CheckProperty, for each property it has.
func (sc *Schema) Check(n *dts.Node, stride int, path string) []Violation {
	var out []Violation
	for _, req := range sc.Required {
		if n.Property(req) == nil {
			out = append(out, sc.Missing(req, path, n.Origin))
		}
	}
	names := make([]string, 0, len(sc.Properties))
	for name := range sc.Properties {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if p := n.Property(name); p != nil {
			out = sc.CheckProperty(out, name, &p.Value, p.Origin, stride, path)
		}
	}
	for _, p := range n.Properties {
		if _, ok := sc.Properties[p.Name]; !ok {
			out = sc.CheckProperty(out, p.Name, &p.Value, p.Origin, stride, path)
		}
	}
	return out
}

// Missing is the node-level rule: the violation of the required
// property name, absent from the node at path whose origin is origin.
func (sc *Schema) Missing(name, path string, origin dts.Origin) Violation {
	return Violation{
		Path: path, Property: name, SchemaID: sc.ID, Kind: "required",
		Message: "required property is missing", Origin: origin,
	}
}

// CheckProperty decides the rules that read only the property name,
// present with value v (whose origin is origin) on the node at path,
// and appends the violated ones to dst: const, enum, arity,
// minItems/maxItems, the type kinds and pattern when the schema lists
// the property, additional when it does not. stride is as for Check;
// only reg-like rules read it.
func (sc *Schema) CheckProperty(dst []Violation, name string, v *dts.Value, origin dts.Origin, stride int, path string) []Violation {
	fail := func(kind, message string) {
		dst = append(dst, Violation{
			Path: path, Property: name, SchemaID: sc.ID, Kind: kind,
			Message: message, Origin: origin,
		})
	}
	ps := sc.Properties[name]
	if ps == nil {
		if !sc.AdditionalProperties && len(sc.Properties) > 0 &&
			!standardProperties[name] && !strings.HasPrefix(name, "#") {
			fail("additional", "property not allowed by schema")
		}
		return dst
	}
	if stride == 0 {
		stride = 1
	}
	cells := v.Cells()
	str, hasString := v.FirstString()

	// A string const needs a string; enum and pattern hold vacuously on
	// a value without one.
	if ps.Const != "" && (!hasString || str != ps.Const) {
		fail("const", fmt.Sprintf("value does not match const %q", ps.Const))
	}
	if ps.ConstU32 != nil && (len(cells) == 0 || cells[0].Val != *ps.ConstU32) {
		fail("const", fmt.Sprintf("cell value does not match const %d", *ps.ConstU32))
	}
	if len(ps.Enum) > 0 && hasString && !slices.Contains(ps.Enum, str) {
		fail("enum", fmt.Sprintf("value not in enum %v", ps.Enum))
	}

	items := len(cells)
	if ps.RegLike {
		if len(cells)%stride != 0 {
			fail("arity", fmt.Sprintf("%d cells is not a multiple of #address-cells+#size-cells (%d)",
				len(cells), stride))
		}
		items = len(cells) / stride
	}
	if ps.MinItems > 0 && items < ps.MinItems {
		fail("minItems", fmt.Sprintf("%d items, schema requires at least %d", items, ps.MinItems))
	}
	if ps.MaxItems > 0 && items > ps.MaxItems {
		fail("maxItems", fmt.Sprintf("%d items, schema allows at most %d", items, ps.MaxItems))
	}
	switch ps.Type {
	case TypeU32:
		if len(cells) != 1 {
			fail("u32", fmt.Sprintf("expected exactly one cell, found %d", len(cells)))
		}
	case TypeString:
		if !hasString {
			fail("string", "expected a string value")
		}
	case TypeCells:
		if len(cells) == 0 {
			fail("cells", "expected a cell array")
		}
	case TypeBytes:
		if len(v.Bytes()) == 0 {
			fail("bytes", "expected a byte array")
		}
	case TypeFlag:
		if !v.IsEmpty() {
			fail("flag", "expected an empty marker property")
		}
	}
	if ps.Pattern != nil && hasString && !ps.Pattern.MatchString(str) {
		fail("pattern", fmt.Sprintf("value %q does not match pattern %s", str, ps.Pattern))
	}
	return dst
}
