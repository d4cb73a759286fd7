package delta

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// This file builds the variability-aware merged tree ("150% model")
// behind family-based lifted checking (DESIGN.md §14): instead of
// deriving one product tree per configuration, every delta is applied
// once to a shared tree whose nodes and property values carry *presence
// conditions* — guard expressions over feature names that say in which
// configurations the artifact exists. Checkers then conjoin these
// guards with the feature-model formula and ask the solver whether any
// valid configuration exhibits a violation, following Bayha's
// constraint-lifting construction and Haber et al.'s family-based
// treatment of delta applicability.
//
// Presence conditions are absolute: a node's Cond already accounts for
// the activation guards of every delta that created, widened or removed
// it, including removal of its ancestors (removals push their negated
// guard down the subtree). A nil condition means "in every
// configuration". Property values are variant lists — each write by a
// delta appends a guarded variant and restricts the guards of the
// variants it overwrites — so the variant whose guard holds under a
// configuration is exactly the value the enumerative Apply would have
// produced (Project materializes this and the differential tests pin
// it against Apply).

// LiftedVariant is one guarded value of a property: the value the
// property has in configurations satisfying Cond (nil = always).
type LiftedVariant struct {
	Cond   *featmodel.Expr
	Value  dts.Value
	Origin dts.Origin
}

// LiftedProperty is a property of the merged tree: a name with one
// variant per delta write that can reach a configuration.
type LiftedProperty struct {
	Name     string
	Variants []*LiftedVariant
}

// LiftedLabel is a guarded node label.
type LiftedLabel struct {
	Cond  *featmodel.Expr
	Label string
}

// LiftedOrigin is one guarded event of a node's origin history: a
// creation, whose Origin is the node's source position and creating
// delta, or, with Edit set, a delta that edits the node (only
// Origin.Delta is set). Cond is nil for always.
type LiftedOrigin struct {
	Cond   *featmodel.Expr
	Origin dts.Origin
	Edit   bool
}

// LiftedNode is a node of the merged tree, present in configurations
// satisfying Cond (nil = always). Origins is the node's origin history
// in application order, one event per creation or edit, starting with
// the unconditional creation that first made it. Where the node is
// present, Apply gives it the position of the last creation whose guard
// holds and the delta of the last event whose guard holds, since each
// edit keeps the position and names the editing delta (dts.Node.Merge).
type LiftedNode struct {
	Name     string
	Cond     *featmodel.Expr
	Labels   []LiftedLabel
	Props    []*LiftedProperty
	Children []*LiftedNode
	Origins  []LiftedOrigin
}

// LiftedConflict records a delta-application failure or ambiguity that
// occurs in the configurations satisfying Cond (nil = every
// configuration): a missing target, a double-add, an unordered write
// pair. The enumerative pipeline surfaces these as Apply/Order errors
// per product; the lifted pipeline discharges each conflict with one
// SAT query against the feature model and reports only the reachable
// ones.
type LiftedConflict struct {
	Cond     *featmodel.Expr
	Delta    string // delta whose application fails (first of the pair, for ambiguities)
	Location string // contested target path / property
	Msg      string // enumerative error text
}

func (c *LiftedConflict) String() string {
	cond := "always"
	if c.Cond != nil {
		cond = "when " + c.Cond.String()
	}
	return fmt.Sprintf("delta %s: %s: %s (%s)", c.Delta, c.Location, c.Msg, cond)
}

// LiftedTree is the variability-aware merged tree for a whole product
// line: the union of every product's tree with presence conditions,
// plus the application conflicts that enumeration would hit. It shares
// its property values with the core and the delta fragments it was
// lifted from, and core.FrontEnd.Lifted shares it between callers: it
// is read-only.
type LiftedTree struct {
	Root        *LiftedNode
	MemReserves []dts.MemReserve // deltas cannot edit memreserves; copied from the core
	Conflicts   []LiftedConflict
	Order       []string // delta application order used for the merge
}

// Lift applies every delta of the set — regardless of activation — to a
// lifted copy of the core tree, guarding each edit with the delta's
// activation condition. Deltas are ordered by one topological sort of
// the full after-relation with declaration-order tie-breaking, the
// same rule Order uses per configuration; any order consistent with
// the full relation is consistent with each configuration's restriction
// of it. A cycle anywhere in the after-relation is an error (slightly
// stricter than per-product ordering, which only sees cycles among
// co-active deltas).
//
// Ambiguity detection is lifted too: unordered delta pairs contending
// for a write location become Conflicts guarded by the conjunction of
// the pair's activation conditions. Orderedness is judged on the full
// after-relation, so a pair ordered only through an inactive
// intermediary counts as ordered here; the declaration-order tie-break
// keeps application deterministic in those configurations.
//
// Every call lifts afresh; core.FrontEnd.Lifted lifts a parsed product
// line once and shares the tree.
func (s *Set) Lift(core *dts.Tree) (*LiftedTree, error) {
	all := make([]bool, len(s.Deltas))
	for i := range all {
		all[i] = true
	}
	order, err := s.order(all)
	if err != nil {
		return nil, err
	}
	lt := &LiftedTree{
		Root:        liftNode(core.Root, nil),
		MemReserves: append([]dts.MemReserve(nil), core.MemReserves...),
	}
	for _, i := range order {
		lt.Order = append(lt.Order, s.Deltas[i].Name)
		lt.applyLifted(s.Deltas[i])
	}
	lt.recordAmbiguities(s, order, s.unordered(order, all))
	return lt, nil
}

// recordAmbiguities turns every unordered contending pair into a
// Conflict guarded by both activation conditions. Conflicts follow the
// application order: by the earlier delta's position, then the later's,
// and the earlier delta is the one blamed.
func (lt *LiftedTree) recordAmbiguities(s *Set, order []int, unordered []contention) {
	pos := make([]int, len(s.Deltas))
	for k, i := range order {
		pos[i] = k
	}
	for x, p := range unordered {
		if pos[p.i] > pos[p.j] {
			unordered[x].i, unordered[x].j = p.j, p.i
		}
	}
	slices.SortFunc(unordered, func(a, b contention) int {
		return cmp.Or(cmp.Compare(pos[a.i], pos[b.i]), cmp.Compare(pos[a.j], pos[b.j]))
	})
	for _, p := range unordered {
		a, b := s.Deltas[p.i], s.Deltas[p.j]
		lt.Conflicts = append(lt.Conflicts, LiftedConflict{
			Cond:     featmodel.AndOpt(a.When, b.When),
			Delta:    a.Name,
			Location: p.loc,
			Msg: fmt.Sprintf("%s and %s both write %s with no order between them",
				a.Name, b.Name, p.loc),
		})
	}
}

// liftNode converts n's subtree into lifted nodes guarded by cond,
// sharing n's property values: a core node unconditionally (cond nil),
// a delta fragment, stamped with its delta's name by NewSet, under the
// guard of the write that adds it.
func liftNode(n *dts.Node, cond *featmodel.Expr) *LiftedNode {
	ln := &LiftedNode{Name: n.Name, Cond: cond, Origins: []LiftedOrigin{{Origin: n.Origin}}}
	if n.Label != "" {
		ln.Labels = []LiftedLabel{{Cond: cond, Label: n.Label}}
	}
	ln.Props = make([]*LiftedProperty, len(n.Properties))
	for i, p := range n.Properties {
		ln.Props[i] = &LiftedProperty{
			Name:     p.Name,
			Variants: []*LiftedVariant{{Cond: cond, Value: p.Value, Origin: p.Origin}},
		}
	}
	ln.Children = make([]*LiftedNode, len(n.Children))
	for i, c := range n.Children {
		ln.Children[i] = liftNode(c, cond)
	}
	return ln
}

// Prop returns the lifted property with the given name, or nil.
func (ln *LiftedNode) Prop(name string) *LiftedProperty {
	for _, p := range ln.Props {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Child returns the direct child with the given name, or nil.
func (ln *LiftedNode) Child(name string) *LiftedNode {
	for _, c := range ln.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Walk visits the lifted subtree in depth-first pre-order with dts path
// conventions. Returning false stops the walk.
func (ln *LiftedNode) Walk(fn func(path string, n *LiftedNode) bool) {
	var rec func(path string, n *LiftedNode) bool
	rec = func(path string, n *LiftedNode) bool {
		if !fn(path, n) {
			return false
		}
		prefix := path
		if prefix == "/" {
			prefix = ""
		}
		for _, c := range n.Children {
			if !rec(prefix+"/"+c.Name, c) {
				return false
			}
		}
		return true
	}
	start := "/"
	if ln.Name != "/" {
		start = "/" + ln.Name
	}
	rec(start, ln)
}

// resolveLifted finds a target in the merged tree: "/" or an absolute
// path directly, "&label" through the lifted node labels, a bare name
// as the first depth-first match — the same rules, in the same match
// order, that resolve uses on concrete trees. Bare names and labels
// resolve against the union tree, so a name that different
// configurations would resolve to different nodes resolves here to the
// union's first match; conditional presence of the match is handled by
// the caller through the missing-target conflict. (A label whose own
// presence is conditional is approximated by its node's condition.)
func (lt *LiftedTree) resolveLifted(target string) (*LiftedNode, string) {
	if target == "/" || strings.HasPrefix(target, "/") {
		if target == "/" || target == "" {
			return lt.Root, "/"
		}
		parts := strings.Split(strings.Trim(target, "/"), "/")
		n := lt.Root
		for _, p := range parts {
			n = n.Child(p)
			if n == nil {
				return nil, target
			}
		}
		return n, target
	}
	var found *LiftedNode
	var foundPath string
	if label, isRef := strings.CutPrefix(target, "&"); isRef {
		lt.Root.Walk(func(path string, n *LiftedNode) bool {
			for _, l := range n.Labels {
				if l.Label == label {
					found, foundPath = n, path
					return false
				}
			}
			return true
		})
		return found, foundPath
	}
	lt.Root.Walk(func(path string, n *LiftedNode) bool {
		if n.Name == target {
			found, foundPath = n, path
			return false
		}
		return true
	})
	return found, foundPath
}

func (lt *LiftedTree) conflict(cond *featmodel.Expr, deltaName, location, format string, args ...interface{}) {
	lt.Conflicts = append(lt.Conflicts, LiftedConflict{
		Cond:     cond,
		Delta:    deltaName,
		Location: location,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// applyLifted performs one delta's operations on the merged tree,
// guarded by the delta's activation condition. Each branch mirrors the
// corresponding case of applyDelta; where the concrete branch fails
// with an ApplyError, the lifted branch records a Conflict guarded by
// the configurations that would hit the failure and carries on, so one
// Lift covers every product.
func (lt *LiftedTree) applyLifted(d *Delta) {
	g := d.When
	for _, op := range d.Ops {
		target, loc := lt.resolveLifted(op.Target)
		if target == nil {
			lt.conflict(g, d.Name, op.Target, "%v %s: target node not found", op.Kind, op.Target)
			continue
		}
		if target.Cond != nil {
			// The target exists only conditionally: configurations that
			// activate the delta but not the target fail enumeratively.
			lt.conflict(featmodel.AndOpt(g, featmodel.Not(target.Cond)), d.Name, loc,
				"%v %s: target node not found", op.Kind, op.Target)
		}
		gAbs := featmodel.AndOpt(target.Cond, g)

		switch op.Kind {
		case OpAdds:
			for _, fp := range op.Fragment.Properties {
				if lp := target.Prop(fp.Name); lp != nil && len(lp.Variants) > 0 {
					present, always := orConds(lp.Variants)
					cond := gAbs
					if !always {
						cond = featmodel.AndOpt(gAbs, present)
					}
					lt.conflict(cond, d.Name, loc+"#"+fp.Name,
						"%v %s: property %s already exists", op.Kind, op.Target, fp.Name)
				}
				target.setVariant(fp, gAbs, false)
			}
			for _, fc := range op.Fragment.Children {
				if existing := target.Child(fc.Name); existing != nil {
					lt.conflict(featmodel.AndOpt(gAbs, existing.Cond), d.Name, loc+"/"+fc.Name,
						"%v %s: node %s already exists", op.Kind, op.Target, fc.Name)
					existing.mergeInto(fc, gAbs)
				} else {
					target.Children = append(target.Children, liftNode(fc, gAbs))
				}
			}

		case OpModifies:
			target.mergeLifted(op.Fragment, gAbs)

		case OpRemovesNode:
			if target == lt.Root {
				lt.conflict(g, d.Name, loc, "%v %s: cannot remove the root node", op.Kind, op.Target)
				continue
			}
			lt.removeNode(target, gAbs)

		case OpRemovesProperty:
			lp := target.Prop(op.PropName)
			if lp == nil || len(lp.Variants) == 0 {
				lt.conflict(gAbs, d.Name, loc+"#"+op.PropName,
					"%v %s: property %s not found", op.Kind, op.Target, op.PropName)
				continue
			}
			if present, always := orConds(lp.Variants); !always {
				lt.conflict(featmodel.AndOpt(gAbs, featmodel.Not(present)), d.Name, loc+"#"+op.PropName,
					"%v %s: property %s not found", op.Kind, op.Target, op.PropName)
			}
			restrictVariants(lp, gAbs)
		}
	}
}

// setVariant appends a guarded variant for a fragment property. With
// overwrite (modifies semantics) the previous variants are restricted
// to configurations where the write does not happen; without it
// (adds semantics) they are left alone — the overlap is flagged as a
// Conflict by the caller and the merged value there is don't-care.
func (ln *LiftedNode) setVariant(p *dts.Property, cond *featmodel.Expr, overwrite bool) {
	lp := ln.Prop(p.Name)
	if lp == nil {
		lp = &LiftedProperty{Name: p.Name}
		ln.Props = append(ln.Props, lp)
	} else if overwrite {
		restrictVariants(lp, cond)
	}
	lp.Variants = append(lp.Variants, &LiftedVariant{Cond: cond, Value: p.Value, Origin: p.Origin})
}

// restrictVariants conjoins ¬cond onto every variant; an unconditional
// restriction (cond == nil) erases them.
func restrictVariants(lp *LiftedProperty, cond *featmodel.Expr) {
	if cond == nil {
		lp.Variants = nil
		return
	}
	not := featmodel.Not(cond)
	for _, v := range lp.Variants {
		v.Cond = featmodel.AndOpt(v.Cond, not)
	}
}

// mergeLifted is Node.Merge lifted under a guard: properties are
// overwritten in the configurations satisfying cond, children merged
// recursively (widening their presence) or appended guarded, delete
// markers replayed as guarded removals, and the fragment's delta named
// as the node's origin under cond.
func (ln *LiftedNode) mergeLifted(frag *dts.Node, cond *featmodel.Expr) {
	if frag.Label != "" {
		ln.Labels = append(ln.Labels, LiftedLabel{Cond: cond, Label: frag.Label})
	}
	for _, name := range frag.DeletedProperties() {
		if lp := ln.Prop(name); lp != nil {
			restrictVariants(lp, cond)
		}
	}
	for _, name := range frag.DeletedNodes() {
		if c := ln.Child(name); c != nil {
			ln.removeChild(c, cond)
		}
	}
	for _, p := range frag.Properties {
		ln.setVariant(p, cond, true)
	}
	for _, c := range frag.Children {
		if mine := ln.Child(c.Name); mine != nil {
			mine.mergeInto(c, cond)
		} else {
			ln.Children = append(ln.Children, liftNode(c, cond))
		}
	}
	if frag.Origin.Delta != "" {
		ln.Origins = append(ln.Origins, LiftedOrigin{
			Cond: cond, Origin: dts.Origin{Delta: frag.Origin.Delta}, Edit: true})
	}
}

// removeNode restricts a node's presence (and its whole subtree's) to
// configurations where the removal is inactive; an unconditional
// removal detaches the node.
func (lt *LiftedTree) removeNode(target *LiftedNode, cond *featmodel.Expr) {
	if cond != nil {
		restrictNode(target, cond)
		return
	}
	lt.Root.Walk(func(_ string, n *LiftedNode) bool {
		if !slices.Contains(n.Children, target) {
			return true
		}
		n.removeChild(target, nil)
		return false
	})
}

// removeChild removes ln's child c in the configurations satisfying
// cond; an unconditional removal (cond nil) detaches it.
func (ln *LiftedNode) removeChild(c *LiftedNode, cond *featmodel.Expr) {
	if cond != nil {
		restrictNode(c, cond)
		return
	}
	ln.Children = slices.DeleteFunc(ln.Children, func(x *LiftedNode) bool { return x == c })
}

// mergeInto merges fragment node c into ln, a node of the same name,
// under cond, widening ln's presence. Where ln is absent and cond holds
// (a removal took the node, or no delta created it), Apply creates the
// node afresh from c: what ln held must stay absent there, and c's
// origin is a creation there. Node conditions are absolute already
// (restrictNode pushes a removal down the subtree), but ln's labels and
// property variants are guarded relative to ln's presence, so they are
// conjoined with it before it widens.
func (ln *LiftedNode) mergeInto(c *dts.Node, cond *featmodel.Expr) {
	if old := ln.Cond; old != nil {
		for i := range ln.Labels {
			ln.Labels[i].Cond = featmodel.AndOpt(ln.Labels[i].Cond, old)
		}
		for _, lp := range ln.Props {
			for _, v := range lp.Variants {
				v.Cond = featmodel.AndOpt(v.Cond, old)
			}
		}
		ln.Origins = append(ln.Origins, LiftedOrigin{
			Cond: featmodel.AndOpt(cond, featmodel.Not(old)), Origin: c.Origin})
		ln.Cond = featmodel.OrOpt(old, cond)
	}
	ln.mergeLifted(c, cond)
}

// restrictNode conjoins ¬cond onto the node and every descendant, so
// descendants of a removed node stay absent even if a later delta
// re-creates the node name (mergeInto).
func restrictNode(ln *LiftedNode, cond *featmodel.Expr) {
	not := featmodel.Not(cond)
	var rec func(n *LiftedNode)
	rec = func(n *LiftedNode) {
		n.Cond = featmodel.AndOpt(n.Cond, not)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(ln)
}

// orConds disjoins the variants' presence conditions; always reports
// that some variant is unconditional (so the property always exists).
func orConds(vs []*LiftedVariant) (cond *featmodel.Expr, always bool) {
	if len(vs) == 0 {
		return nil, false
	}
	cond = vs[0].Cond
	for _, v := range vs[1:] {
		cond = featmodel.OrOpt(cond, v.Cond)
	}
	return cond, cond == nil
}

// Project materializes the concrete tree of one configuration from the
// merged tree: nodes whose presence condition holds, each property
// taking its last variant whose guard holds (later deltas append later,
// so last-true is last-writer-wins, matching enumerative application
// order). Subtrees of absent nodes are skipped wholesale. Project is
// the semantic ground truth the differential tests compare against
// Set.Apply; the lifted checkers never project — they query guards
// symbolically.
func (lt *LiftedTree) Project(cfg featmodel.Configuration) *dts.Tree {
	sel := map[string]bool(cfg)
	return &dts.Tree{
		Root:        projectNode(lt.Root, sel),
		MemReserves: append([]dts.MemReserve(nil), lt.MemReserves...),
	}
}

func projectNode(ln *LiftedNode, sel map[string]bool) *dts.Node {
	n := &dts.Node{Name: ln.Name}
	for _, o := range ln.Origins {
		switch {
		case !featmodel.EvalOpt(o.Cond, sel):
		case o.Edit:
			n.Origin.Delta = o.Origin.Delta
		default:
			n.Origin = o.Origin
		}
	}
	for _, l := range ln.Labels {
		if featmodel.EvalOpt(l.Cond, sel) {
			n.Label = l.Label
		}
	}
	for _, lp := range ln.Props {
		var chosen *LiftedVariant
		for _, v := range lp.Variants {
			if featmodel.EvalOpt(v.Cond, sel) {
				chosen = v
			}
		}
		if chosen != nil {
			n.Properties = append(n.Properties, &dts.Property{
				Name: lp.Name, Value: chosen.Value, Origin: chosen.Origin,
			})
		}
	}
	for _, c := range ln.Children {
		if featmodel.EvalOpt(c.Cond, sel) {
			n.Children = append(n.Children, projectNode(c, sel))
		}
	}
	return n
}

// ActiveConflicts returns the conflicts whose guard holds under the
// configuration — the lifted image of the ApplyError / AmbiguityError
// the enumerative pipeline would raise for that product.
func (lt *LiftedTree) ActiveConflicts(cfg featmodel.Configuration) []LiftedConflict {
	sel := map[string]bool(cfg)
	var out []LiftedConflict
	for _, c := range lt.Conflicts {
		if featmodel.EvalOpt(c.Cond, sel) {
			out = append(out, c)
		}
	}
	return out
}
