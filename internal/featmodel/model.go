// Package featmodel implements feature models for software product
// lines in the FODA tradition the llhsc paper builds on (Section II-B):
// a feature tree with AND/OR/XOR group decompositions, mandatory /
// optional / abstract features, cross-tree constraints, a direct CNF
// encoding built once per model (encode.go) that seeds every SAT
// session, ground validity checking of complete configurations
// (eval.go), and SAT-backed automated analyses (void model, dead
// features, core features, product counting and enumeration). The
// translation to a propositional formula (ToFormula) is the reference
// the encoding is tested against.
//
// The multi-product extension of Section IV-A — k VM models plus a
// platform model with cross-VM exclusive resources — lives in multi.go.
package featmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"llhsc/internal/logic"
)

// GroupKind is the decomposition semantics of a feature's children.
type GroupKind int

// Group kinds.
const (
	// GroupAnd gives each child its own mandatory/optional status.
	GroupAnd GroupKind = iota + 1
	// GroupOr requires at least one child when the parent is selected.
	GroupOr
	// GroupXor requires exactly one child when the parent is selected.
	GroupXor
)

func (g GroupKind) String() string {
	switch g {
	case GroupAnd:
		return "and"
	case GroupOr:
		return "or"
	case GroupXor:
		return "xor"
	default:
		return fmt.Sprintf("GroupKind(%d)", int(g))
	}
}

// Feature is one node of the feature tree.
type Feature struct {
	Name      string
	Abstract  bool // does not correspond to a concrete artifact
	Mandatory bool // under an AND-decomposed parent
	// Exclusive marks a resource that static partitioning may assign
	// to at most one VM (Section IV-A); it only matters under a
	// MultiModel.
	Exclusive bool
	Group     GroupKind // decomposition of Children (GroupAnd if unset)
	Children  []*Feature
}

// NewFeature returns a feature with the given name and AND decomposition.
func NewFeature(name string) *Feature {
	return &Feature{Name: name, Group: GroupAnd}
}

// Model is a feature model: a tree plus cross-tree constraints.
type Model struct {
	Root        *Feature
	Constraints []*Expr

	features map[string]*Feature
	parent   map[string]*Feature
	depth    map[string]int // edges from the root: 0 for the root
	order    []string       // depth-first feature order

	encOnce sync.Once // builds enc (encode.go)
	enc     *Encoding
	encErr  error

	products atomic.Pointer[productList] // enumerated once (products.go)
}

// NewModel builds a model from a feature tree and optional cross-tree
// constraints, validating name uniqueness and constraint references.
func NewModel(root *Feature, constraints ...*Expr) (*Model, error) {
	m := &Model{
		Root:        root,
		Constraints: constraints,
		features:    make(map[string]*Feature),
		parent:      make(map[string]*Feature),
		depth:       make(map[string]int),
	}
	var walk func(f, parent *Feature, depth int) error
	walk = func(f, parent *Feature, depth int) error {
		if f.Name == "" {
			return fmt.Errorf("featmodel: feature with empty name under %q", parentName(parent))
		}
		if _, dup := m.features[f.Name]; dup {
			return fmt.Errorf("featmodel: duplicate feature name %q", f.Name)
		}
		if f.Group == 0 {
			f.Group = GroupAnd
		}
		m.features[f.Name] = f
		if parent != nil {
			m.parent[f.Name] = parent
		}
		m.depth[f.Name] = depth
		m.order = append(m.order, f.Name)
		for _, c := range f.Children {
			if err := walk(c, f, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, nil, 0); err != nil {
		return nil, err
	}
	for _, c := range constraints {
		for _, n := range c.Names() {
			if _, ok := m.features[n]; !ok {
				return nil, fmt.Errorf("featmodel: constraint %s references unknown feature %q", c, n)
			}
		}
	}
	return m, nil
}

func parentName(f *Feature) string {
	if f == nil {
		return "<root>"
	}
	return f.Name
}

// Feature returns the feature with the given name, or nil.
func (m *Model) Feature(name string) *Feature { return m.features[name] }

// Parent returns the parent of the named feature (nil for the root).
func (m *Model) Parent(name string) *Feature { return m.parent[name] }

// Names returns all feature names in depth-first order.
func (m *Model) Names() []string { return append([]string(nil), m.order...) }

// VarMap assigns propositional variables to feature names (optionally
// suffixed, for multi-product copies) for ToFormula.
type VarMap struct {
	pool *logic.Pool
	vars map[string]logic.Var
}

// NewVarMap returns a variable map drawing fresh variables from pool.
func NewVarMap(pool *logic.Pool) *VarMap {
	return &VarMap{pool: pool, vars: make(map[string]logic.Var)}
}

// Var returns (allocating on first use) the variable for a name.
func (vm *VarMap) Var(name string) logic.Var {
	if v, ok := vm.vars[name]; ok {
		return v
	}
	v := vm.pool.Fresh()
	vm.vars[name] = v
	return v
}

// Lookup returns the variable for name if it was allocated.
func (vm *VarMap) Lookup(name string) (logic.Var, bool) {
	v, ok := vm.vars[name]
	return v, ok
}

// ToFormula translates the model into propositional logic with the
// standard FODA semantics [Kang et al. 1990; Batory 2005]:
//
//   - the root feature is always selected,
//   - every child implies its parent,
//   - a mandatory child is implied by its parent,
//   - an OR group requires at least one child when the parent holds,
//   - a XOR group requires exactly one child when the parent holds,
//   - cross-tree constraints hold.
//
// Variables for feature f are drawn as vm.Var(prefix + f.Name).
//
// No session is seeded from this formula: AppendClauses writes the same
// semantics as clauses directly, and ToFormula through logic.ToCNF is
// the reference the tests hold that encoding to, model for model on the
// feature variables.
//
// An error is returned when a cross-tree constraint references a
// feature missing from the model — possible only for a Model assembled
// by hand instead of through NewModel (which validates references).
func (m *Model) ToFormula(vm *VarMap, prefix string) (*logic.Formula, error) {
	var parts []*logic.Formula
	v := func(name string) *logic.Formula { return logic.V(vm.Var(prefix + name)) }

	parts = append(parts, v(m.Root.Name))

	var walk func(f *Feature)
	walk = func(f *Feature) {
		pf := v(f.Name)
		childVars := make([]*logic.Formula, len(f.Children))
		for i, c := range f.Children {
			cf := v(c.Name)
			childVars[i] = cf
			parts = append(parts, logic.Implies(cf, pf)) // child -> parent
		}
		switch f.Group {
		case GroupOr:
			if len(f.Children) > 0 {
				parts = append(parts, logic.Implies(pf, logic.Or(childVars...)))
			}
		case GroupXor:
			if len(f.Children) > 0 {
				parts = append(parts, logic.Implies(pf, logic.Or(childVars...)))
				parts = append(parts, logic.AtMostOne(childVars...))
			}
		default: // GroupAnd
			for i, c := range f.Children {
				if c.Mandatory {
					parts = append(parts, logic.Implies(pf, childVars[i]))
				}
			}
		}
		for _, c := range f.Children {
			walk(c)
		}
	}
	walk(m.Root)

	for _, c := range m.Constraints {
		f, err := c.ToFormula(func(name string) (logic.Var, bool) {
			if _, ok := m.features[name]; !ok {
				return 0, false
			}
			return vm.Var(prefix + name), true
		})
		if err != nil {
			// Reachable only for models not built via NewModel; return
			// the error instead of panicking so a malformed model cannot
			// crash a server goroutine.
			return nil, fmt.Errorf("featmodel: %w", err)
		}
		parts = append(parts, f)
	}
	return logic.And(parts...), nil
}

// Configuration is a set of selected feature names.
type Configuration map[string]bool

// ConfigOf builds a Configuration from a list of names.
func ConfigOf(names ...string) Configuration {
	c := make(Configuration, len(names))
	for _, n := range names {
		c[n] = true
	}
	return c
}

// Complete turns a user's feature list into a complete configuration,
// so that "memory,cpu@0,uart0,veth0" names a product: names are trimmed
// and empty ones skipped, every selected feature selects its ancestors,
// and the root is selected. A name outside the model is an error.
func (m *Model) Complete(names []string) (Configuration, error) {
	cfg := make(Configuration, m.completeSize(names))
	cfg[m.Root.Name] = true
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		f := m.features[n]
		if f == nil {
			return nil, fmt.Errorf("unknown feature %q", n)
		}
		for ; f != nil && !cfg[f.Name]; f = m.parent[f.Name] {
			cfg[f.Name] = true
		}
	}
	return cfg, nil
}

// completeSize bounds the size of the configuration Complete builds
// from names, so its map is sized once: the root plus each name's
// features up to the root, at most every feature.
func (m *Model) completeSize(names []string) int {
	n := 1
	for _, name := range names {
		n += m.depth[strings.TrimSpace(name)]
	}
	return min(n, len(m.features))
}

// Sorted returns the selected names sorted lexicographically.
func (c Configuration) Sorted() []string {
	out := make([]string, 0, len(c))
	for n, sel := range c {
		if sel {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
