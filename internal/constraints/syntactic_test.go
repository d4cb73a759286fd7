package constraints

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"llhsc/internal/conform"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// clockedSchemaYAML is the pattern schema of
// TestSyntacticCheckerYAMLSchemaPattern.
const clockedSchemaYAML = `
$id: clocked.yaml
select:
  node: clk
properties:
  clock-output-names:
    pattern: ^clk-[a-z]+$
required:
  - clock-output-names
`

// shapesSchemaYAML covers the rule kinds StandardSet leaves out (bytes
// and flag types, minItems on plain cells) and a required property the
// schema does not list under properties.
const shapesSchemaYAML = `
$id: shapes.yaml
select:
  node: shapes
properties:
  mac:
    type: bytes
  dma-coherent:
    type: flag
  clocks:
    type: cells
    minItems: 2
    maxItems: 3
  mode:
    type: string
    enum:
      - fast
      - slow
required:
  - mac
  - vendor-id
`

// strictSchemaYAML covers the rules only a strict schema exercises: a
// disallowed property (additionalProperties: false), an integer const,
// and a string const with no type, which a value without a string
// fails.
const strictSchemaYAML = `
$id: strict.yaml
select:
  node: strict
properties:
  reg-shift:
    const: 2
  label:
    const: clk-main
additionalProperties: false
`

// differentialSchemas is every schema the differential suite checks each
// node against, whether or not it selects the node.
func differentialSchemas(t *testing.T) []*schema.Schema {
	t.Helper()
	out := append([]*schema.Schema(nil), schema.StandardSet().Schemas...)
	for _, src := range []string{clockedSchemaYAML, shapesSchemaYAML, strictSchemaYAML} {
		sc, err := schema.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// sortViolations orders violations the way CheckContext does, breaking
// remaining ties by message.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Property != b.Property {
			return a.Property < b.Property
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// syntacticCorpus is the differential suite's tree corpus: the running
// example's core tree, each of its products, and the conform
// generator's trees with their generated configuration applied.
func syntacticCorpus(t *testing.T) map[string]*dts.Tree {
	t.Helper()
	trees := make(map[string]*dts.Tree)
	coreTree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	trees["core"] = coreTree
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	if !complete || len(products) != runningexample.ProductCount {
		t.Fatalf("running example: %d products (complete=%v), want %d",
			len(products), complete, runningexample.ProductCount)
	}
	for _, p := range products {
		tree, _, err := set.Apply(coreTree, featmodel.ConfigOf(p...))
		if err != nil {
			t.Fatal(err)
		}
		trees["product "+productKey(p)] = tree
	}
	for seed := int64(0); seed < 20; seed++ {
		c := conform.GenerateCase(seed)
		tree, err := conform.ParseOracle("gen.dts", c.Source)
		if err != nil || tree == nil {
			t.Fatalf("seed %d: generated source does not parse: %v", seed, err)
		}
		trees[fmt.Sprintf("conform %d", seed)] = tree
		if c.Deltas == "" {
			continue
		}
		ds, err := delta.Parse("gen.deltas", c.Deltas)
		if err != nil {
			t.Fatalf("seed %d: deltas do not parse: %v", seed, err)
		}
		if product, _, err := ds.Apply(tree, c.Config); err == nil {
			trees[fmt.Sprintf("conform %d product", seed)] = product
		}
	}
	return trees
}

// mutator rewrites nodes with the faults the schema rules look for:
// dropped or added properties, strings from the schemas' const/enum/
// pattern alphabet, changed cell counts, bytes, and empty values.
type mutator struct {
	rng      *rand.Rand
	names    []string // property names the schemas mention
	alphabet []string
}

func newMutator(seed int64, schemas []*schema.Schema) *mutator {
	m := &mutator{rng: rand.New(rand.NewSource(seed))}
	// #clock-cells is in no schema: a strict schema allows it only
	// because of its '#' prefix.
	names := map[string]bool{"#clock-cells": true}
	alphabet := map[string]bool{"bogus": true, "clk-main": true, "CLK9": true, "": true}
	for _, sc := range schemas {
		for _, r := range sc.Required {
			names[r] = true
		}
		for name, ps := range sc.Properties {
			names[name] = true
			if ps.Const != "" {
				alphabet[ps.Const] = true
			}
			for _, e := range ps.Enum {
				alphabet[e] = true
			}
		}
	}
	for name := range names {
		m.names = append(m.names, name)
	}
	for s := range alphabet {
		m.alphabet = append(m.alphabet, s)
	}
	sort.Strings(m.names)
	sort.Strings(m.alphabet)
	return m
}

// mutate returns a copy of n with one to three faults applied; n itself
// is left untouched. Rewritten properties carry a fresh delta origin so
// blame propagation is compared too.
func (m *mutator) mutate(n *dts.Node, tag int) *dts.Node {
	out := &dts.Node{Name: n.Name, Origin: n.Origin, Properties: append([]*dts.Property(nil), n.Properties...)}
	for k := m.rng.Intn(3); k >= 0; k-- {
		if len(out.Properties) > 0 && m.rng.Intn(4) == 0 {
			i := m.rng.Intn(len(out.Properties))
			out.Properties = append(out.Properties[:i:i], out.Properties[i+1:]...)
			continue
		}
		name := m.names[m.rng.Intn(len(m.names))]
		var v dts.Value
		switch m.rng.Intn(5) {
		case 0:
			v = dts.StringValueOf(m.alphabet[m.rng.Intn(len(m.alphabet))])
		case 1:
			cells := make([]uint32, m.rng.Intn(6))
			for i := range cells {
				cells[i] = uint32(m.rng.Intn(3))
			}
			v = dts.CellsValue(cells...)
		case 2:
			v = dts.BytesValue(make([]byte, m.rng.Intn(3)))
		case 3:
			// empty marker value
		case 4:
			v = dts.StringValueOf(m.alphabet[m.rng.Intn(len(m.alphabet))])
			v.Chunks = append(v.Chunks, dts.CellsValue(1, 2).Chunks...)
		}
		p := &dts.Property{Name: name, Value: v, Origin: dts.Origin{Delta: fmt.Sprintf("mut%d", tag)}}
		if i := propertyIndex(out, name); i >= 0 {
			out.Properties[i] = p
		} else {
			out.Properties = append(out.Properties, p)
		}
	}
	return out
}

func propertyIndex(n *dts.Node, name string) int {
	for i, p := range n.Properties {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// TestSyntacticMatchesOracle holds the production evaluator to the
// Section IV-B encoding: every node of every corpus tree, unchanged and
// under seeded mutations and parent cell sizes, against every schema of
// the suite (selected or not), must give identical violations — rule,
// property, message and origin.
func TestSyntacticMatchesOracle(t *testing.T) {
	schemas := differentialSchemas(t)
	trees := syntacticCorpus(t)
	treeNames := make([]string, 0, len(trees))
	for name := range trees {
		treeNames = append(treeNames, name)
	}
	sort.Strings(treeNames)

	mut := newMutator(13, schemas)
	checks, violations := 0, 0
	kinds := map[string]bool{}
	compare := func(label string, n *dts.Node, stride int, path string) {
		for _, sc := range schemas {
			var got []Violation
			for _, v := range sc.Check(n, stride, path) {
				got = append(got, schemaViolation(v))
			}
			want := oracleCheckNodeSyntax(t, n, stride, path, sc)
			sortViolations(got)
			sortViolations(want)
			if !reflect.DeepEqual(got, want) {
				var props []string
				for _, p := range n.Properties {
					props = append(props, fmt.Sprintf("%s=%+v", p.Name, p.Value.Chunks))
				}
				t.Fatalf("%s %s vs %s: evaluator and oracle differ\n got %v\nwant %v\nproperties %v",
					label, path, sc.ID, got, want, props)
			}
			checks++
			violations += len(got)
			for _, v := range got {
				kind := strings.Split(v.Rule, ":")[2]
				kinds[kind] = true
				if kind == "const" {
					if strings.HasPrefix(v.Message, "cell value") {
						kinds["integer const"] = true
					} else if len(n.Property(v.Property).Value.Strings()) == 0 {
						kinds["string const on a value with no string"] = true
					}
				}
			}
		}
	}
	for _, name := range treeNames {
		tag := 0
		var walk func(parent *dts.Node, path string)
		walk = func(parent *dts.Node, path string) {
			for _, n := range parent.Children {
				childPath := path + "/" + n.Name
				stride := parent.AddressCells() + parent.SizeCells()
				compare(name, n, stride, childPath)
				// Mutations run on the running example's trees; the
				// conform trees are large and already varied.
				if !strings.HasPrefix(name, "conform") {
					for i := 0; i < 30; i++ {
						tag++
						s := stride
						if mut.rng.Intn(3) == 0 {
							s = mut.rng.Intn(3) + mut.rng.Intn(3)
						}
						compare(name, mut.mutate(n, tag), s, childPath)
					}
				}
				walk(n, childPath)
			}
		}
		walk(trees[name].Root, "")
	}
	t.Logf("%d (node, schema) checks, %d violations", checks, violations)
	for _, k := range []string{"required", "const", "enum", "arity", "minItems", "maxItems",
		"u32", "string", "cells", "bytes", "flag", "pattern", "additional",
		"integer const", "string const on a value with no string"} {
		if !kinds[k] {
			t.Errorf("no %s violation was exercised", k)
		}
	}
}

// TestSyntacticRequiredButUnlisted: a required property the schema does
// not list under properties is reported when missing, by the
// enumerative and the lifted checker alike, as schema.Validate does.
func TestSyntacticRequiredButUnlisted(t *testing.T) {
	sc, err := schema.Load(`
$id: twin.yaml
select:
  node: twin
properties:
  bar:
required:
  - foo
  - bar
`)
	if err != nil {
		t.Fatal(err)
	}
	set := &schema.Set{}
	set.Add(sc)
	tree := mustTree(t, `
/dts-v1/;
/ { twin { }; };
`)
	want := []string{"schema:twin.yaml:required:bar", "schema:twin.yaml:required:foo"}
	if n := len(set.Validate(tree)); n != len(want) {
		t.Fatalf("schema.Validate reports %d violations, want %d", n, len(want))
	}

	var got []string
	for _, v := range NewSyntacticChecker(set).Check(tree) {
		got = append(got, v.Rule)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SyntacticChecker rules = %v, want %v", got, want)
	}

	noDeltas, err := delta.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := noDeltas.Lift(tree)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := NewLiftedChecker(conformModel(t), set).CheckContext(context.Background(), lt)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	for _, f := range findings {
		if f.Family == "schema" {
			got = append(got, f.Violation.Rule)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LiftedChecker schema rules = %v, want %v", got, want)
	}
}

// TestSyntacticCheckerCanceled: a canceled context stops the walk with
// context.Canceled before any rule is decided.
func TestSyntacticCheckerCanceled(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err := NewSyntacticChecker(schema.StandardSet()).CheckContext(ctx, tree)
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want context.Canceled", err, err)
	}
	if len(vs) != 0 {
		t.Errorf("violations = %v after cancellation", vs)
	}
}

// TestSyntacticCheckerAllocs bounds the allocations of one syntactic
// check of the running example's core tree, the same evaluator and walk
// the baseline (/lint, dtcc lint) runs. Evaluating the ground rules
// allocates a few small slices per node (value accessors, child paths,
// sorted property names); building a solver per (node, schema) pair,
// in either checking mode, costs over ten times the bound.
func TestSyntacticCheckerAllocs(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	checker := NewSyntacticChecker(schema.StandardSet())
	allocs := testing.AllocsPerRun(50, func() {
		if vs := checker.Check(tree); len(vs) != 0 {
			t.Fatalf("running example violations: %v", vs)
		}
	})
	const bound = 100
	t.Logf("%.0f allocs per check", allocs)
	if allocs > bound {
		t.Errorf("syntactic check of the core tree: %.0f allocs, want at most %d", allocs, bound)
	}
}
