package constraints

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"llhsc/internal/addr"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// This file implements family-based lifted checking (DESIGN.md §14):
// the three constraint families run once over the variability-aware
// merged tree (delta.LiftedTree) instead of once per derived product.
// Every potential violation is guarded by a presence condition, and a
// single incremental SAT session — seeded with the feature-model
// formula via featmodel.PresenceEncoder — answers, per violation, the
// lifted question "does ANY valid configuration exhibit this?" in one
// assumption solve. A Sat answer decodes to a concrete witness
// configuration, so reports stay as actionable as enumerative ones.
//
// The word-level tier (DESIGN.md §13) keeps its place at the front of
// the decision ladder: region variants in the merged tree are fully
// concrete values, so DecideConcretePair settles the geometry of every
// candidate pair exactly, and the SAT session only ever decides
// *reachability* — whether the two artifacts coexist in a valid
// product. Nothing symbolic about addresses reaches the solver.

// Interpretation contexts are products of guarded choices; this cap
// bounds their blowup on adversarial inputs, with an honest finding
// emitted when coverage is truncated.
const maxInterpContexts = 16

// LiftedFinding is one family-based verdict: a violation that at least
// one valid configuration exhibits, plus that configuration (decoded
// from the solver model — the witness product).
type LiftedFinding struct {
	// Family names the constraint family: "apply", "semantic",
	// "schema", "interrupt" or "memreserve".
	Family    string
	Violation Violation
	// Config is a valid configuration exhibiting the violation,
	// decoded from the SAT model of the lifted query.
	Config featmodel.Configuration
}

func (f LiftedFinding) String() string {
	return fmt.Sprintf("[%s] %s (config %v)", f.Family, f.Violation, f.Config.Sorted())
}

// LiftedStats describes the solver work of the most recent lifted
// check: how many lifted queries the one shared session answered, and
// how much never reached it.
type LiftedStats struct {
	// Queries is the number of assumption solves issued against the
	// shared incremental session: one per distinct assumption set, since
	// guards that flatten to the same set share a cached verdict.
	Queries int
	// Pruned counts distinct assumption sets the session proved
	// unsatisfiable — candidate violations (or whole schema selections)
	// no valid configuration can exhibit, discharged family-wide by one
	// Unsat answer each.
	Pruned int
	// WordDecided counts the word-level tier's interval-arithmetic
	// decisions: candidate pairs among the collected region variants,
	// plus the memreserve rule's reserves and reserve pairs. Disjoint
	// pairs never reach the session.
	WordDecided int
	// Regions is the number of guarded region variants collected: one
	// per decoded region and kind option of each reg option whose guard
	// (node ∧ interpretation context ∧ option) is reachable. Reg options
	// no valid configuration selects are never decoded.
	Regions int
	// Contexts is the number of interpretation contexts explored
	// during region collection (cell-size/ranges variant splits): the
	// reachable contexts built for the children of each node that has
	// children. Leaf nodes build none and do not count (the running
	// example explores 3).
	Contexts int
	// Findings is the number of reachable violations reported.
	Findings int
	// Solver aggregates the shared session's SAT work.
	Solver sat.Stats
}

// LiftedChecker verifies all constraint families over an un-derived
// product line in one incremental solver session. Like the enumerative
// checkers it is a façade; unlike them it owns a long-lived solver per
// CheckContext call and is single-goroutine for the duration of a call.
type LiftedChecker struct {
	// Model is the feature model whose formula seeds the session.
	Model *featmodel.Model
	// Schemas, when non-nil, enables the lifted syntactic family.
	Schemas *schema.Set
	// Budget bounds the shared session's work per CheckContext call.
	Budget sat.Budget

	stats LiftedStats
}

// NewLiftedChecker returns a checker over m's product line with no
// session budget.
func NewLiftedChecker(m *featmodel.Model, schemas *schema.Set) *LiftedChecker {
	return &LiftedChecker{Model: m, Schemas: schemas}
}

// LastStats returns the work counters of the most recent CheckContext
// call on this checker.
func (lc *LiftedChecker) LastStats() LiftedStats { return lc.stats }

// Check is CheckContext without cancellation.
func (lc *LiftedChecker) Check(lt *delta.LiftedTree) []LiftedFinding {
	out, _ := lc.CheckContext(context.Background(), lt)
	return out
}

// CheckContext runs every lifted family over the merged tree and
// returns the reachable violations with their witness configurations,
// sorted deterministically. A non-nil error (a *sat.LimitError or
// context error) means the session's budget cut the check short;
// findings confirmed up to that point are still returned.
func (lc *LiftedChecker) CheckContext(ctx context.Context, lt *delta.LiftedTree) ([]LiftedFinding, error) {
	lc.stats = LiftedStats{}
	pe := featmodel.NewPresenceEncoder(lc.Model)
	pe.SetBudget(lc.Budget)
	r := &liftedRun{
		lc:      lc,
		pe:      pe,
		ctx:     ctx,
		seen:    make(map[string]bool),
		options: make(map[*delta.LiftedProperty][]valueOption),
	}

	r.applyConflicts(lt)
	r.schemaFamily(lt)
	rootACs, regions := r.collectLiftedRegions(lt)
	lc.stats.Regions = len(regions)
	r.semantic(regions)
	r.interrupts(lt)
	r.memreserve(lt, rootACs, regions)

	lc.stats.Queries = pe.Queries()
	lc.stats.Solver = pe.Stats()
	lc.stats.Findings = len(r.findings)
	sort.SliceStable(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Violation.Path != b.Violation.Path {
			return a.Violation.Path < b.Violation.Path
		}
		if a.Violation.Property != b.Violation.Property {
			return a.Violation.Property < b.Violation.Property
		}
		if a.Violation.Rule != b.Violation.Rule {
			return a.Violation.Rule < b.Violation.Rule
		}
		return a.Violation.Message < b.Violation.Message
	})
	return r.findings, r.err
}

// reachResult caches one guard's lifted verdict: whether any valid
// configuration satisfies it, and if so where its witness model sits in
// liftedRun.models.
type reachResult struct {
	known, ok bool
	lo, hi    int32
}

// liftedRun is the per-call state of a lifted check.
type liftedRun struct {
	lc  *LiftedChecker
	pe  *featmodel.PresenceEncoder
	ctx context.Context

	findings []LiftedFinding
	seen     map[string]bool                         // finding dedup across contexts and options
	reach    []reachResult                           // guard handle → cached verdict
	models   []uint64                                // witness bitsets of the Sat verdicts (AppendModel)
	options  map[*delta.LiftedProperty][]valueOption // chosenOptions memo
	err      error                                   // first budget/cancellation error
}

// reachable asks the shared session whether any valid configuration
// satisfies guard g (0 = always, i.e. "is the model non-void"), posed
// as its assumption set, so a conjunction of known literals adds
// nothing to the session. Verdicts are cached by handle, and equal sets
// share a handle, so repeated guards — the common case, since a handful
// of delta activation conditions dominate a merged tree — cost one
// query total, however they were composed. A Sat verdict keeps its
// model as a bitset; emitWith decodes it only for a reported finding.
func (r *liftedRun) reachable(g featmodel.Guard) bool {
	if r.err != nil {
		return false
	}
	if int(g) < len(r.reach) && r.reach[g].known {
		return r.reach[g].ok
	}
	st, err := r.pe.SolveContext(r.ctx, r.pe.Lits(g)...)
	if err != nil {
		r.err = err
		return false
	}
	res := reachResult{known: true, ok: st == sat.Sat}
	if res.ok {
		res.lo = int32(len(r.models))
		r.models = r.pe.AppendModel(r.models)
		res.hi = int32(len(r.models))
	} else {
		r.lc.stats.Pruned++
	}
	if n := int(g) + 1; n > len(r.reach) {
		r.reach = append(r.reach, make([]reachResult, n-len(r.reach))...)
	}
	r.reach[g] = res
	return res.ok
}

// emit reports a violation if its guard is reachable.
func (r *liftedRun) emit(family string, cond featmodel.Guard, v Violation) {
	if r.reachable(cond) {
		r.emitWith(cond, family, v)
	}
}

// emitWith reports a violation that holds under the reachable guard g,
// with the witness configuration decoded from g's cached model,
// deduplicating identical findings produced by different
// interpretation contexts or property options.
func (r *liftedRun) emitWith(g featmodel.Guard, family string, v Violation) {
	key := family + "\x00" + v.Path + "\x00" + v.Property + "\x00" + v.Rule + "\x00" + v.Message
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	res := r.reach[g]
	cfg := r.pe.DecodeModel(r.models[res.lo:res.hi])
	r.findings = append(r.findings, LiftedFinding{Family: family, Violation: v, Config: cfg})
}

// sink is the lifted family's rule sink: reports are filtered by the
// session's reachability oracle and carry the decoded witness.
func (r *liftedRun) sink(family string) sink {
	return sink{
		pe:    r.pe,
		reach: r.reachable,
		emit:  func(g featmodel.Guard, v Violation) { r.emitWith(g, family, v) },
	}
}

// fail records the first error that cut the run short.
func (r *liftedRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// applyConflicts discharges the merge-time conflicts (missing targets,
// double-adds, ambiguous orders): each becomes one lifted query, and
// only conflicts some valid configuration actually hits are reported —
// the family-based image of the per-product ApplyError.
func (r *liftedRun) applyConflicts(lt *delta.LiftedTree) {
	for _, c := range lt.Conflicts {
		r.emit("apply", r.pe.Guard(c.Cond), Violation{
			Path:    c.Location,
			Rule:    "lifted:apply-conflict",
			Message: fmt.Sprintf("delta %s: %s", c.Delta, c.Msg),
		})
	}
}

// valueOption is one mutually exclusive value a lifted property can
// take: the property has value *value in configurations satisfying
// cond, or is absent there when value is nil.
type valueOption struct {
	cond   featmodel.Guard
	value  *dts.Value
	origin dts.Origin
}

// chosenOptions converts a lifted property's variant list into its
// mutually exclusive chosen-value options under last-writer-wins
// projection: variant i is chosen exactly when its guard holds and no
// later variant's guard does (later deltas append later), and the
// property is absent when no guard holds. Options whose guard is
// structurally false (an unconditional later variant shadows them) are
// omitted. A nil property yields the single always-absent option. The
// options are computed once per property per check; callers must not
// modify the returned slice.
func (r *liftedRun) chosenOptions(lp *delta.LiftedProperty) []valueOption {
	if lp == nil || len(lp.Variants) == 0 {
		return alwaysAbsent
	}
	opts, ok := r.options[lp]
	if !ok {
		opts = projectVariants(r.pe, lp.Variants)
		r.options[lp] = opts
	}
	return opts
}

func projectVariants(pe *featmodel.PresenceEncoder, vs []*delta.LiftedVariant) []valueOption {
	var opts []valueOption
	var laterNeg featmodel.Guard // ∧ ¬cond_j for every variant j after i
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		g := pe.Guard(v.Cond)
		opts = append(opts, valueOption{
			cond:   pe.And(g, laterNeg),
			value:  &v.Value,
			origin: v.Origin,
		})
		if g == 0 {
			// An unconditional write shadows every earlier variant and
			// makes absence impossible.
			return opts
		}
		laterNeg = pe.And(laterNeg, pe.Not(g))
	}
	return append(opts, valueOption{cond: laterNeg}) // absent
}

// originOptions is projectVariants for a node's origin history: one
// option per creation i and per event j from i on that is i itself or
// an edit, holding where i is the last creation whose guard holds and j
// the last event whose guard holds, with i's position and j's delta.
// The options carry no value. The first event is an unconditional
// creation, so exactly one option holds wherever the node is present,
// and there are at most creations × events options.
func originOptions(pe *featmodel.PresenceEncoder, os []delta.LiftedOrigin) []valueOption {
	var opts []valueOption
	var laterCreations featmodel.Guard // ∧ ¬cond of every creation after i
	for i := len(os) - 1; i >= 0; i-- {
		if os[i].Edit {
			continue
		}
		gi := pe.Guard(os[i].Cond)
		created := pe.And(gi, laterCreations)
		var laterEdits featmodel.Guard // ∧ ¬cond of every edit after j
		shadowed := false
		for j := len(os) - 1; j > i && !shadowed; j-- {
			if !os[j].Edit {
				continue
			}
			gj := pe.Guard(os[j].Cond)
			o := os[i].Origin
			o.Delta = os[j].Origin.Delta
			opts = append(opts, valueOption{cond: pe.And(created, pe.And(gj, laterEdits)), origin: o})
			if shadowed = gj == 0; !shadowed {
				laterEdits = pe.And(laterEdits, pe.Not(gj))
			}
		}
		if !shadowed {
			opts = append(opts, valueOption{cond: pe.And(created, laterEdits), origin: os[i].Origin})
		}
		if gi == 0 {
			break
		}
		laterCreations = pe.And(laterCreations, pe.Not(gi))
	}
	return opts
}

// alwaysAbsent is the option list of a property no variant writes.
var alwaysAbsent = []valueOption{{}}

// cellOption is one guarded value of a #address-cells/#size-cells-style
// property, with the concrete default applied for absent options.
type cellOption struct {
	cond featmodel.Guard
	n    int
}

// cellOptions mirrors dts.Node.CellValue over a lifted node: the first
// u32 cell of each chosen option, falling back to def when the option
// is absent or has no cells.
func (r *liftedRun) cellOptions(ln *delta.LiftedNode, name string, def int) []cellOption {
	var out []cellOption
	for _, o := range r.chosenOptions(ln.Prop(name)) {
		v := def
		if o.value != nil {
			if cells := o.value.Cells(); len(cells) > 0 {
				v = int(cells[0].Val)
			}
		}
		out = append(out, cellOption{cond: o.cond, n: v})
	}
	return out
}

// kindOption is a guarded region kind: addr.KindOf, the rule
// addr.CollectRegions applies to the concrete properties, applied to
// the chosen options of device_type and compatible.
type kindOption struct {
	cond featmodel.Guard
	kind addr.Kind
}

func (r *liftedRun) kindOptions(ln *delta.LiftedNode) []kindOption {
	// One option per distinct kind, guards disjoined, in first-seen order
	// for determinism.
	var out []kindOption
	for _, d := range r.chosenOptions(ln.Prop("device_type")) {
		dt := ""
		if d.value != nil {
			if ss := d.value.Strings(); len(ss) > 0 {
				dt = ss[0]
			}
		}
		for _, c := range r.chosenOptions(ln.Prop("compatible")) {
			var compatible []string
			if c.value != nil {
				compatible = c.value.Strings()
			}
			kind, cond := addr.KindOf(dt, compatible), r.pe.And(d.cond, c.cond)
			if k := slices.IndexFunc(out, func(o kindOption) bool { return o.kind == kind }); k >= 0 {
				out[k].cond = r.pe.Or(out[k].cond, cond)
			} else {
				out = append(out, kindOption{cond: cond, kind: kind})
			}
		}
	}
	return out
}

// interpCtx is one interpretation context of the region walk: the
// #address-cells/#size-cells in force for a node's children and the
// composed ranges translation to the root, guarded by the chosen-guards
// of every cell/ranges decision on the path. Contexts with different
// root #address-cells carry different bit widths and are mutually
// exclusive by construction.
type interpCtx struct {
	cond      featmodel.Guard
	ac, sc    int
	width     int
	translate addr.Translator
}

// collectLiftedRegions mirrors addr.CollectRegions over the merged
// tree: it only enumerates options, splitting into interpretation
// contexts wherever a cell-size or ranges property is variant, and
// decodes each reg and ranges option with the concrete collector's
// steps (addr.DecodeReg, addr.Translator.Through). A reg option is
// decoded only when its guard n.Cond ∧ context ∧ option is reachable:
// every finding its regions could produce would be conjoined with that
// guard, so an unsatisfiable one drops them all. Decoding problems are
// emitted as guarded "semantic:regions" findings, like the concrete
// collector's error return. It returns the root #address-cells options
// (each fixing a bit width) and the guarded region variants, one per
// decoded region and kind option.
func (r *liftedRun) collectLiftedRegions(lt *delta.LiftedTree) ([]cellOption, []guardedRegion) {
	pe := r.pe
	rootACs := r.cellOptions(lt.Root, "#address-cells", 2)

	var rootCtxs []interpCtx
	for _, acO := range rootACs {
		width := addr.BitWidth(acO.n)
		for _, scO := range r.cellOptions(lt.Root, "#size-cells", 1) {
			rootCtxs = append(rootCtxs, interpCtx{
				cond:      pe.And(acO.cond, scO.cond),
				ac:        acO.n,
				sc:        scO.n,
				width:     width,
				translate: addr.Identity,
			})
		}
	}

	var out []guardedRegion
	var regs []addr.Region
	var walk func(parent *delta.LiftedNode, path string, ctxs []interpCtx)
	walk = func(parent *delta.LiftedNode, path string, ctxs []interpCtx) {
		for _, n := range parent.Children {
			childPath := path + "/" + n.Name
			nCond := pe.Guard(n.Cond)

			// Decode this node's reg under every reachable context × reg
			// option, fanning out per kind option. Presence conditions
			// are absolute, so n.Cond alone accounts for the whole
			// ancestor chain.
			var kinds []kindOption // computed on the first decode
			for _, ro := range r.chosenOptions(n.Prop("reg")) {
				if ro.value == nil {
					continue
				}
				for _, ictx := range ctxs {
					if ictx.sc <= 0 {
						continue
					}
					g0 := pe.And(nCond, pe.And(ictx.cond, ro.cond))
					if !r.reachable(g0) {
						continue
					}
					var errs []error
					regs, errs = addr.DecodeReg(regs[:0], childPath, ro.value.U32s(), ictx.ac, ictx.sc,
						ictx.translate, 0, ro.origin)
					for _, err := range errs {
						r.emit("semantic", g0, regionsViolation(err))
					}
					if kinds == nil {
						kinds = r.kindOptions(n)
					}
					for _, rg := range regs {
						for _, ko := range kinds {
							rg.Kind = ko.kind
							out = append(out, guardedRegion{reg: rg, cond: pe.And(g0, ko.cond), width: ictx.width})
						}
					}
				}
			}

			// Compose the child contexts: each parent context splits on
			// this node's #address-cells, #size-cells and ranges
			// options. A leaf has no child to interpret, so it builds no
			// context; only its non-empty ranges options are still
			// parsed, for the findings addr.CollectRegions reports.
			leaf := len(n.Children) == 0
			rOpts := r.chosenOptions(n.Prop("ranges"))
			if leaf && !slices.ContainsFunc(rOpts, translates) {
				continue
			}
			acOpts := r.cellOptions(n, "#address-cells", 2)
			scOpts := r.cellOptions(n, "#size-cells", 1)
			var childCtxs []interpCtx
			if !leaf {
				childCtxs = make([]interpCtx, 0, len(ctxs)*len(acOpts)*len(scOpts)*len(rOpts))
			}
			for _, ictx := range ctxs {
				for _, acO := range acOpts {
					for _, scO := range scOpts {
						for _, rO := range rOpts {
							if leaf && !translates(rO) {
								continue
							}
							cond := pe.And(ictx.cond, pe.And(acO.cond, pe.And(scO.cond, rO.cond)))
							tr, err := ictx.translate.Through(childPath, rO.value, acO.n, ictx.ac, scO.n)
							if err != nil {
								r.emit("semantic", pe.And(nCond, cond), regionsViolation(err))
							}
							if !leaf {
								childCtxs = append(childCtxs, interpCtx{
									cond: cond, ac: acO.n, sc: scO.n,
									width: ictx.width, translate: tr,
								})
							}
						}
					}
				}
			}
			if leaf {
				continue
			}
			// Most cross-property guard combinations are mutually
			// unsatisfiable (e.g. "veth0 chose this ac" ∧ "veth1 chose
			// that sc" under an XOR group); prune them through the
			// session before the cap so reachable contexts are never
			// sacrificed to unreachable ones.
			if len(childCtxs) > 1 {
				kept := childCtxs[:0]
				for _, c := range childCtxs {
					if r.reachable(pe.And(nCond, c.cond)) {
						kept = append(kept, c)
					}
				}
				childCtxs = kept
			}
			if len(childCtxs) > maxInterpContexts {
				r.emit("semantic", nCond, Violation{
					Path: childPath,
					Rule: "lifted:interp-contexts",
					Message: fmt.Sprintf(
						"%d interpretation contexts exceed the lifted cap (%d); semantic coverage below this node is truncated",
						len(childCtxs), maxInterpContexts),
				})
				childCtxs = childCtxs[:maxInterpContexts]
			}
			r.lc.stats.Contexts += len(childCtxs)
			walk(n, childPath, childCtxs)
		}
	}
	walk(lt.Root, "", rootCtxs)
	return rootACs, out
}

// translates reports whether a ranges option is non-empty: one that
// addr.Translator.Through parses rather than passing through.
func translates(o valueOption) bool { return o.value != nil && !o.value.IsEmpty() }

// semantic runs the non-overlap rule (formula (7)) over the guarded
// regions with the enumerative checker's own steps, once per root-width
// group (addr.BitWidth yields 32 or 64): the sweep's eligible
// candidates, each decided by the word tier (the variants are
// concrete). Only colliding pairs cost a reachability query, asked in
// global (i, j) order; cross-width pairs come from mutually exclusive
// root cell interpretations and are never paired.
func (r *liftedRun) semantic(regions []guardedRegion) {
	type hit struct {
		i, j    int // indexes into regions
		witness uint64
	}
	var hits []hit
	sc := NewSemanticChecker()
	var group []addr.Region
	var index []int // group position → index into regions
	for _, width := range []int{32, 64} {
		group, index = group[:0], index[:0]
		for k, g := range regions {
			if g.width == width {
				group = append(group, g.reg)
				index = append(index, k)
			}
		}
		err := sc.decidePairs(r.ctx, group, width, sc.sweepCandidates(group, width),
			func(p [2]int, c Collision) { hits = append(hits, hit{index[p[0]], index[p[1]], c.Witness}) })
		if err != nil {
			r.fail(err)
			return
		}
	}
	r.lc.stats.WordDecided += sc.stats.WordDecided
	slices.SortFunc(hits, func(a, b hit) int {
		if a.i != b.i {
			return a.i - b.i
		}
		return a.j - b.j
	})
	s := r.sink("semantic")
	for _, h := range hits {
		a, b := regions[h.i], regions[h.j]
		if g, ok := s.holds(a.cond, b.cond); ok {
			for _, v := range (Collision{A: a.reg, B: b.reg, Witness: h.witness}).Violations() {
				s.emit(g, v)
			}
		}
	}
}

// schemaFamily runs the lifted syntactic family one property at a time,
// lifting each schema rule over only the variability it reads. Which
// schemas select a node depends on its compatible option alone, since
// Select's other input, the node name, does not vary. Under each
// selection, a required property fails under its absent option, and
// each present option of each property is checked once with
// schema.Schema.CheckProperty, crossed with the parent's cell options
// only when a reg-like rule reads the stride. A rule runs only when its
// guard is reachable, since each of its messages would be reported
// under that guard.
func (r *liftedRun) schemaFamily(lt *delta.LiftedTree) {
	if r.lc.Schemas == nil {
		return
	}
	var rec func(parent *delta.LiftedNode, path string)
	rec = func(parent *delta.LiftedNode, path string) {
		if len(parent.Children) == 0 {
			return
		}
		var strides []cellOption // the parent's #address-cells + #size-cells options
		for _, ac := range r.cellOptions(parent, "#address-cells", 2) {
			for _, sc := range r.cellOptions(parent, "#size-cells", 1) {
				strides = append(strides, cellOption{cond: r.pe.And(ac.cond, sc.cond), n: ac.n + sc.n})
			}
		}
		for _, n := range parent.Children {
			childPath := path + "/" + n.Name
			r.schemaNode(n, childPath, strides)
			if r.err != nil {
				return
			}
			rec(n, childPath)
		}
	}
	rec(lt.Root, "")
}

// anyStride is the stride option of a rule that reads no stride.
var anyStride = []cellOption{{n: 1}}

func (r *liftedRun) schemaNode(n *delta.LiftedNode, path string, strides []cellOption) {
	pe := r.pe
	nCond := pe.Guard(n.Cond)
	var vs []schema.Violation
	for _, c := range r.chosenOptions(n.Prop("compatible")) {
		var compatible []string
		if c.value != nil {
			compatible = c.value.Strings()
		}
		schemas := r.lc.Schemas.Selecting(n.Name, compatible)
		sg := pe.And(nCond, c.cond)
		if len(schemas) == 0 || !r.reachable(sg) {
			continue
		}
		if err := pollCanceled(r.ctx); err != nil {
			r.fail(err)
			return
		}
		for _, sc := range schemas {
			for _, req := range sc.Required {
				for _, o := range r.chosenOptions(n.Prop(req)) {
					if o.value != nil {
						continue
					}
					g := pe.And(sg, o.cond)
					if !r.reachable(g) {
						continue
					}
					for _, no := range originOptions(pe, n.Origins) {
						if og := pe.And(g, no.cond); r.reachable(og) {
							r.emitWith(og, "schema", schemaViolation(sc.Missing(req, path, no.origin)))
						}
					}
				}
			}
			for _, lp := range n.Props {
				propStrides := anyStride
				if ps := sc.Properties[lp.Name]; ps != nil && ps.RegLike {
					propStrides = strides
				}
				for _, o := range r.chosenOptions(lp) {
					if o.value == nil {
						continue
					}
					for _, st := range propStrides {
						g := pe.And(sg, pe.And(o.cond, st.cond))
						if !r.reachable(g) {
							continue
						}
						vs = sc.CheckProperty(vs[:0], lp.Name, o.value, o.origin, st.n, path)
						for _, v := range vs {
							r.emitWith(g, "schema", schemaViolation(v))
						}
					}
				}
			}
		}
	}
}

// interrupts runs the interrupt-uniqueness rule over guarded claims:
// one per cell of each chosen interrupts option.
func (r *liftedRun) interrupts(lt *delta.LiftedTree) {
	var claims []irqClaim
	lt.Root.Walk(func(path string, n *delta.LiftedNode) bool {
		for _, o := range r.chosenOptions(n.Prop("interrupts")) {
			if o.value != nil {
				claims = appendIRQClaims(claims, path, o.value, r.pe.And(r.pe.Guard(n.Cond), o.cond), o.origin)
			}
		}
		return true
	})
	if _, err := interruptRule(r.ctx, claims, r.sink("interrupt")); err != nil {
		r.fail(err)
	}
}

// memreserve runs the /memreserve/ rule once per root-width option,
// against the memory-bank variants of that width. Reserves live in the
// core (deltas cannot edit them), so only the banks carry guards.
func (r *liftedRun) memreserve(lt *delta.LiftedTree, rootACs []cellOption, regions []guardedRegion) {
	if len(lt.MemReserves) == 0 {
		return
	}
	s := r.sink("memreserve")
	for _, acO := range rootACs {
		width := addr.BitWidth(acO.n)
		var banks []guardedRegion
		for _, g := range regions {
			if g.reg.Kind == addr.KindMemory && g.width == width {
				banks = append(banks, g)
			}
		}
		var st SemanticStats
		err := memReserveRule(r.ctx, lt.MemReserves, banks, width, acO.cond, s, &st)
		r.lc.stats.WordDecided += st.WordDecided
		if err != nil {
			r.fail(err)
			return
		}
	}
}
