// Package delta implements the delta-oriented programming (DOP) product
// line for DTS files described in Section III-B of the llhsc paper: a
// core-module DTS is refined by delta modules that add, modify and
// remove fragments. Each delta carries an activation condition over
// feature names (the "when" clause) and ordering constraints (the
// "after" clause); applying the active deltas of a configuration in a
// valid topological order yields the product DTS.
//
// Every node and property written by a delta is stamped with the
// delta's name (dts.Origin.Delta), which is how llhsc traces a
// constraint violation back to the delta module that caused it.
package delta

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// OpKind discriminates delta operations.
type OpKind int

// Delta operation kinds.
const (
	// OpAdds introduces new child nodes/properties under a target node
	// ("adds binding <target> { ... }"); the added entries must not
	// already exist.
	OpAdds OpKind = iota + 1
	// OpModifies merges the fragment into an existing target node
	// ("modifies <target> { ... }").
	OpModifies
	// OpRemovesNode deletes a node ("removes node <target>").
	OpRemovesNode
	// OpRemovesProperty deletes a property
	// ("removes property <target> <name>").
	OpRemovesProperty
)

func (k OpKind) String() string {
	switch k {
	case OpAdds:
		return "adds"
	case OpModifies:
		return "modifies"
	case OpRemovesNode:
		return "removes node"
	case OpRemovesProperty:
		return "removes property"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Operation is one edit performed by a delta.
type Operation struct {
	Kind     OpKind
	Target   string    // node path ("/" = root) or bare node name
	Fragment *dts.Node // payload for OpAdds / OpModifies
	PropName string    // for OpRemovesProperty
}

// Delta is one delta module.
type Delta struct {
	Name  string
	After []string        // must be applied after these deltas (when active)
	When  *featmodel.Expr // activation condition; nil = always active
	Ops   []Operation
}

// Active reports whether the delta is activated by the configuration.
func (d *Delta) Active(cfg featmodel.Configuration) bool {
	if d.When == nil {
		return true
	}
	return d.When.Eval(map[string]bool(cfg))
}

// Set is a collection of delta modules forming a product line. NewSet
// precomputes everything about ordering that does not depend on the
// configuration: the after-relation as index lists and the pairs of
// deltas whose write sets intersect. It also stamps every fragment with
// its delta's name, so products share the fragments as they are. A Set
// is read-only after NewSet, so concurrent product workers share one;
// callers must not edit Deltas, their After lists, their operations or
// their fragments afterwards.
type Set struct {
	Deltas []*Delta
	index  map[string]int // name -> position in Deltas
	after  [][]int        // after[i]: the deltas Deltas[i] follows, duplicates kept
	succ   [][]int        // succ[j]: the deltas that list Deltas[j] in After
	pairs  []contention   // write-contending pairs, in (i, j) order

	lifted atomic.Pointer[liftMemo] // the last Lift (lifted.go)
}

// contention is a pair of deltas i < j whose write sets intersect; loc
// is the smallest location both write.
type contention struct {
	i, j int
	loc  string
}

// NewSet validates and indexes the deltas: names must be unique and
// every "after" reference must resolve. It stamps each operation's
// fragment with the delta's name (dts.Origin.Delta).
func NewSet(deltas []*Delta) (*Set, error) {
	s := &Set{
		Deltas: deltas,
		index:  make(map[string]int, len(deltas)),
		after:  make([][]int, len(deltas)),
		succ:   make([][]int, len(deltas)),
	}
	for i, d := range deltas {
		if d.Name == "" {
			return nil, fmt.Errorf("delta: module with empty name")
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("delta: duplicate module name %q", d.Name)
		}
		s.index[d.Name] = i
	}
	for i, d := range deltas {
		for _, dep := range d.After {
			j, ok := s.index[dep]
			if !ok {
				return nil, fmt.Errorf("delta: %s is after unknown delta %q", d.Name, dep)
			}
			s.after[i] = append(s.after[i], j)
			s.succ[j] = append(s.succ[j], i)
		}
	}
	s.pairs = contendingPairs(deltas)
	for _, d := range deltas {
		for _, op := range d.Ops {
			if op.Fragment != nil {
				stampDelta(op.Fragment, d.Name)
			}
		}
	}
	return s, nil
}

// contendingPairs lists every pair of deltas i < j whose write sets
// intersect, each with the smallest location both write, in (i, j)
// order. It goes through a location -> writers map, so disjoint deltas
// cost nothing beyond their own locations.
func contendingPairs(deltas []*Delta) []contention {
	writers := make(map[string][]int, len(deltas))
	for i, d := range deltas {
		writes(d, func(loc string) {
			if w := writers[loc]; len(w) == 0 || w[len(w)-1] != i {
				writers[loc] = append(w, i)
			}
		})
	}
	smallest := make(map[[2]int]string)
	for loc, w := range writers {
		for x := range w {
			for _, j := range w[x+1:] {
				k := [2]int{w[x], j}
				if cur, ok := smallest[k]; !ok || loc < cur {
					smallest[k] = loc
				}
			}
		}
	}
	pairs := make([]contention, 0, len(smallest))
	for k, loc := range smallest {
		pairs = append(pairs, contention{i: k[0], j: k[1], loc: loc})
	}
	slices.SortFunc(pairs, func(a, b contention) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
	})
	return pairs
}

// writes calls emit for each location the delta writes: "path#prop" for
// a property write and the node path for node creation or removal. A
// "/" target and an absolute path spell the same locations, so
// "modifies / { uart@1000 { ... }; }" and "modifies /uart@1000 { ... }"
// both write /uart@1000#status. Bare-name and &label targets are not
// resolved to the absolute path they alias.
func writes(d *Delta, emit func(loc string)) {
	var collect func(path string, n *dts.Node)
	collect = func(path string, n *dts.Node) {
		for _, p := range n.Properties {
			emit(path + "#" + p.Name)
		}
		prefix := path
		if prefix == "/" {
			prefix = ""
		}
		for _, c := range n.Children {
			cp := prefix + "/" + c.Name
			emit(cp)
			collect(cp, c)
		}
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAdds, OpModifies:
			collect(op.Target, op.Fragment)
		case OpRemovesNode:
			emit(op.Target)
		case OpRemovesProperty:
			emit(op.Target + "#" + op.PropName)
		}
	}
}

// Delta returns the module with the given name, or nil.
func (s *Set) Delta(name string) *Delta {
	if i, ok := s.index[name]; ok {
		return s.Deltas[i]
	}
	return nil
}

// Active returns the deltas activated by the configuration, in
// declaration order.
func (s *Set) Active(cfg featmodel.Configuration) []*Delta {
	var out []*Delta
	for _, d := range s.Deltas {
		if d.Active(cfg) {
			out = append(out, d)
		}
	}
	return out
}

// CycleError reports a cyclic "after" dependency among active deltas.
type CycleError struct {
	Names []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("delta: cyclic after-dependency among %v", e.Names)
}

// AmbiguityError reports two active deltas that write the same location
// without an ordering constraint between them, making the product
// depend on arbitrary application order.
type AmbiguityError struct {
	A, B     string // delta names
	Location string // contested path/property
}

func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("delta: %s and %s both write %s with no order between them",
		e.A, e.B, e.Location)
}

// Order topologically sorts the active deltas for the configuration
// according to their after-constraints (restricted to active deltas, as
// the paper specifies). Ties are broken by declaration order, keeping
// application deterministic. It returns a CycleError for cyclic
// constraints and otherwise an AmbiguityError when unordered deltas
// contend for the same write location.
func (s *Set) Order(cfg featmodel.Configuration) ([]*Delta, error) {
	active := make([]bool, len(s.Deltas))
	for i, d := range s.Deltas {
		active[i] = d.Active(cfg)
	}
	order, err := s.order(active)
	if err != nil {
		return nil, err
	}
	if u := s.unordered(order, active); len(u) > 0 {
		return nil, &AmbiguityError{A: s.Deltas[u[0].i].Name, B: s.Deltas[u[0].j].Name, Location: u[0].loc}
	}
	out := make([]*Delta, len(order))
	for k, i := range order {
		out[k] = s.Deltas[i]
	}
	return out, nil
}

// order is Kahn's algorithm over the deltas marked active, following
// after-edges between active deltas only. The ready deltas are a bitset
// and each step takes the lowest index, so ties break by declaration
// order at one word scan per 64 deltas. It returns delta indices in
// application order, or a CycleError naming, in declaration order, the
// active deltas left with unmet dependencies. (Counts of inactive deltas
// go negative and are never read.)
func (s *Set) order(active []bool) ([]int, error) {
	n := len(s.Deltas)
	indeg := make([]int, n)
	ready := make([]uint64, (n+63)/64)
	for i := range s.Deltas {
		if !active[i] {
			continue
		}
		for _, dep := range s.after[i] {
			if active[dep] {
				indeg[i]++
			}
		}
		if indeg[i] == 0 {
			ready[i/64] |= 1 << (i % 64)
		}
	}
	out := make([]int, 0, n)
	for w := 0; w < len(ready); {
		if ready[w] == 0 {
			w++
			continue
		}
		i := w*64 + bits.TrailingZeros64(ready[w])
		ready[w] &^= 1 << (i % 64)
		out = append(out, i)
		for _, m := range s.succ[i] {
			if indeg[m]--; active[m] && indeg[m] == 0 {
				ready[m/64] |= 1 << (m % 64)
				w = min(w, m/64)
			}
		}
	}
	var cyc []string
	for i, d := range s.Deltas {
		if active[i] && indeg[i] > 0 {
			cyc = append(cyc, d.Name)
		}
	}
	if cyc != nil {
		return nil, &CycleError{Names: cyc}
	}
	return out, nil
}

// unordered returns the contending pairs, in (i, j) order, whose deltas
// are both active and not ordered either way by the after-edges among
// active deltas. order is s.order(active)'s result. Reachability is
// computed only once a candidate pair turns up: each delta's row of the
// closure is the union of its dependencies and their rows, which the
// topological order has already completed. Only active deltas get rows,
// so no path runs through an inactive one.
func (s *Set) unordered(order []int, active []bool) []contention {
	var reach []uint64
	words := (len(s.Deltas) + 63) / 64
	row := func(i int) []uint64 { return reach[i*words : (i+1)*words] }
	reaches := func(i, j int) bool { return row(i)[j/64]&(1<<(j%64)) != 0 }
	var out []contention
	for _, p := range s.pairs {
		if !active[p.i] || !active[p.j] {
			continue
		}
		if reach == nil {
			reach = make([]uint64, len(s.Deltas)*words)
			for _, i := range order {
				ri := row(i)
				for _, dep := range s.after[i] {
					ri[dep/64] |= 1 << (dep % 64)
					for w, bitsOfDep := range row(dep) {
						ri[w] |= bitsOfDep
					}
				}
			}
		}
		if !reaches(p.i, p.j) && !reaches(p.j, p.i) {
			out = append(out, p)
		}
	}
	return out
}

// resolve returns, in path's backing array, the nodes from root down to
// the one target names, or false: "/" or an absolute path is looked up
// directly, "&label" through the node labels (the form FromOverlay
// emits for overlay fragments), and a bare name matches the first node
// with that name in depth-first pre-order.
func resolve(root *dts.Node, target string, path []*dts.Node) ([]*dts.Node, bool) {
	path = append(path[:0], root)
	if !strings.HasPrefix(target, "/") {
		name, byLabel := strings.CutPrefix(target, "&")
		return firstMatch(path, name, byLabel)
	}
	if target == "/" {
		return path, true
	}
	rest := strings.Trim(target, "/")
	for {
		name, tail, more := strings.Cut(rest, "/")
		n := path[len(path)-1].Child(name)
		if n == nil {
			return path, false
		}
		path = append(path, n)
		if !more {
			return path, true
		}
		rest = tail
	}
}

// firstMatch extends path, whose last node is the subtree to search, to
// the first node of that subtree, in depth-first pre-order, whose name
// (or label, when byLabel) is name.
func firstMatch(path []*dts.Node, name string, byLabel bool) ([]*dts.Node, bool) {
	n := path[len(path)-1]
	if byLabel && n.Label == name || !byLabel && n.Name == name {
		return path, true
	}
	for _, c := range n.Children {
		if found, ok := firstMatch(append(path, c), name, byLabel); ok {
			return found, true
		}
	}
	return path, false
}

// ApplyError reports a failed delta operation.
type ApplyError struct {
	Delta  string
	Op     OpKind
	Target string
	Msg    string
}

func (e *ApplyError) Error() string {
	return fmt.Sprintf("delta %s: %v %s: %s", e.Delta, e.Op, e.Target, e.Msg)
}

// Apply applies the active deltas for cfg, in a valid order, to core
// (see ApplyContext) and returns the product DTS together with the
// applied delta names (the trace used in reports).
func (s *Set) Apply(core *dts.Tree, cfg featmodel.Configuration) (*dts.Tree, []string, error) {
	return s.ApplyContext(context.Background(), core, cfg, 0)
}

// StepLimitError reports that delta application exceeded maxOps.
type StepLimitError struct {
	Limit int
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("delta: application exceeded %d operations", e.Limit)
}

// ApplyContext is Apply under a context and an operation cap: maxOps
// bounds the total number of delta operations applied (0 = unlimited),
// and the context is polled between deltas. On a stop it returns the
// trace so far with ctx.Err() or a *StepLimitError.
//
// The product is derived by path copying (dts.Tree.Derive): it shares
// every node no operation writes with core, and every node and property
// it takes from a fragment with the fragment. Neither is ever written,
// so products of one core may be derived concurrently. The product is
// read-only too: Clone it to edit (as dtb.Encode does).
func (s *Set) ApplyContext(ctx context.Context, core *dts.Tree, cfg featmodel.Configuration, maxOps int) (*dts.Tree, []string, error) {
	ordered, err := s.Order(cfg)
	if err != nil {
		return nil, nil, err
	}
	tree := core.Derive()
	var path []*dts.Node // resolve's buffer, reused across operations
	var trace []string
	ops := 0
	for _, d := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, trace, err
		}
		ops += len(d.Ops)
		if maxOps > 0 && ops > maxOps {
			return nil, trace, &StepLimitError{Limit: maxOps}
		}
		if path, err = applyDelta(tree, d, path); err != nil {
			return nil, trace, err
		}
		trace = append(trace, d.Name)
	}
	return tree, trace, nil
}

// applyDelta applies d's operations to tree, a tree from Derive, owning
// each path before it writes; it returns the path buffer for reuse.
// Fragment nodes and properties, stamped by NewSet, go in as they are:
// a later operation that writes under one owns it first.
func applyDelta(tree *dts.Tree, d *Delta, path []*dts.Node) ([]*dts.Node, error) {
	for _, op := range d.Ops {
		fail := func(format string, args ...interface{}) error {
			return &ApplyError{Delta: d.Name, Op: op.Kind, Target: op.Target,
				Msg: fmt.Sprintf(format, args...)}
		}
		var ok bool
		if path, ok = resolve(tree.Root, op.Target, path); !ok {
			return path, fail("target node not found")
		}
		switch op.Kind {
		case OpAdds:
			target := tree.Own(path)
			for _, p := range op.Fragment.Properties {
				if target.Property(p.Name) != nil {
					return path, fail("property %s already exists", p.Name)
				}
				target.SetProperty(p)
			}
			for _, c := range op.Fragment.Children {
				if target.Child(c.Name) != nil {
					return path, fail("node %s already exists", c.Name)
				}
				target.Children = append(target.Children, c)
			}

		case OpModifies:
			tree.MergeAt(path, op.Fragment)

		case OpRemovesNode:
			if len(path) == 1 {
				return path, fail("cannot remove the root node")
			}
			tree.Own(path[:len(path)-1]).RemoveChild(path[len(path)-1].Name)

		case OpRemovesProperty:
			if !tree.Own(path).RemoveProperty(op.PropName) {
				return path, fail("property %s not found", op.PropName)
			}
		}
	}
	return path, nil
}

// stampDelta sets Origin.Delta to name on n's subtree. It writes only
// what differs, so a NewSet over deltas another Set already holds (E6
// and the benchmarks rebuild sets from kept deltas) writes nothing that
// products of the first Set may be reading.
func stampDelta(n *dts.Node, name string) {
	if n.Origin.Delta != name {
		n.Origin.Delta = name
	}
	for _, p := range n.Properties {
		if p.Origin.Delta != name {
			p.Origin.Delta = name
		}
	}
	for _, c := range n.Children {
		stampDelta(c, name)
	}
}
