package constraints

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"llhsc/internal/addr"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
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

// Interpretation contexts and schema worlds are products of guarded
// choices; these caps bound the blowup on adversarial inputs, with an
// honest finding emitted when coverage is truncated.
const (
	maxInterpContexts = 16
	maxSchemaWorlds   = 64
)

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
	// shared incremental session.
	Queries int
	// Pruned counts guards the session proved unreachable — candidate
	// violations (or whole schema worlds) no valid configuration can
	// exhibit, discharged family-wide by one Unsat answer each.
	Pruned int
	// WordDecided counts region pairs the word-level tier settled with
	// interval arithmetic; disjoint pairs never reach the session.
	WordDecided int
	// Regions is the number of guarded region variants collected.
	Regions int
	// Contexts is the number of interpretation contexts explored
	// during region collection (cell-size/ranges variant splits).
	Contexts int
	// Worlds is the number of schema worlds (concrete property
	// combinations) explored.
	Worlds int
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
	// CheckMemoryBanks mirrors SemanticChecker.CheckMemoryBanks.
	CheckMemoryBanks bool
	// SkipInterrupts disables the lifted interrupt-uniqueness family,
	// mirroring core.Pipeline.SkipInterrupts.
	SkipInterrupts bool
	// LintOnly keeps only the structural families (apply conflicts and
	// the lifted schema checks), skipping the semantic, interrupt and
	// memreserve families — the lifted image of the pipeline's
	// overload-shedding mode.
	LintOnly bool
	// Budget bounds the shared session's work per CheckContext call.
	Budget sat.Budget
	// OnQuery, when non-nil, receives one QueryRecord per reachability
	// query the shared session answers (cache hits in the guard cache
	// never reach it). Same contract as SemanticChecker.OnQuery: the
	// hook runs inline, and leaving it nil keeps the query loop free of
	// record construction.
	OnQuery func(obs.QueryRecord)

	stats LiftedStats
}

// NewLiftedChecker returns a checker with the enumerative pipeline's
// defaults.
func NewLiftedChecker(m *featmodel.Model, schemas *schema.Set) *LiftedChecker {
	return &LiftedChecker{Model: m, Schemas: schemas, CheckMemoryBanks: true}
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
		lc:    lc,
		pe:    pe,
		ctx:   ctx,
		seen:  make(map[string]bool),
		reach: make(map[string]reachResult),
	}

	r.applyConflicts(lt)
	r.schemaFamily(lt)
	if !lc.LintOnly {
		rootACs, regions := r.collectLiftedRegions(lt)
		lc.stats.Regions = len(regions)
		r.semantic(regions)
		if !lc.SkipInterrupts {
			r.interrupts(lt)
		}
		r.memreserve(lt, rootACs, regions)
	}

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
// configuration satisfies it, and if so which.
type reachResult struct {
	ok  bool
	cfg featmodel.Configuration
}

// liftedRun is the per-call state of a lifted check.
type liftedRun struct {
	lc  *LiftedChecker
	pe  *featmodel.PresenceEncoder
	ctx context.Context

	findings []LiftedFinding
	seen     map[string]bool        // finding dedup across contexts/worlds
	reach    map[string]reachResult // guard string → cached verdict
	err      error                  // first budget/cancellation error
}

// reachable asks the shared session whether any valid configuration
// satisfies the guard (nil = true, i.e. "is the model non-void").
// Results are cached by the guard's canonical string, so repeated
// guards — the common case, since a handful of delta activation
// conditions dominate a merged tree — cost one query total.
func (r *liftedRun) reachable(cond *featmodel.Expr) (bool, featmodel.Configuration) {
	if r.err != nil {
		return false, nil
	}
	key := "-"
	if cond != nil {
		key = cond.String()
	}
	if res, hit := r.reach[key]; hit {
		return res.ok, res.cfg
	}
	lit := r.pe.Literal(cond)
	var t0 time.Time
	var before sat.Stats
	if r.lc.OnQuery != nil {
		t0 = time.Now()
		before = r.pe.Stats()
	}
	st, err := r.pe.SolveContext(r.ctx, lit)
	res := reachResult{ok: err == nil && st == sat.Sat}
	if res.ok {
		res.cfg = r.pe.Config()
	}
	if r.lc.OnQuery != nil {
		r.lc.emitReach(key, st, err, time.Since(t0), r.pe.Stats().Sub(before), res.cfg)
	}
	if err != nil {
		r.err = err
		return false, nil
	}
	if !res.ok {
		r.lc.stats.Pruned++
	}
	r.reach[key] = res
	return res.ok, res.cfg
}

// emitReach builds and delivers one lifted reachability record. Called
// only when OnQuery is non-nil.
func (lc *LiftedChecker) emitReach(key string, st sat.Status, err error, elapsed time.Duration, d sat.Stats, cfg featmodel.Configuration) {
	q := obs.QueryRecord{
		Family:       "lifted",
		Tier:         "lifted",
		Query:        key,
		Verdict:      "unsat",
		Millis:       float64(elapsed) / float64(time.Millisecond),
		Conflicts:    d.Conflicts,
		Decisions:    d.Decisions,
		Propagations: d.Propagations,
	}
	switch {
	case err != nil:
		q.Verdict = "limit"
	case st == sat.Sat:
		q.Verdict = "sat"
		q.Witness = fmt.Sprintf("%v", cfg.Sorted())
	}
	lc.OnQuery(q)
}

// emit reports a violation if its guard is reachable.
func (r *liftedRun) emit(family string, cond *featmodel.Expr, v Violation) {
	ok, cfg := r.reachable(cond)
	if !ok {
		return
	}
	r.emitWith(cfg, family, v)
}

// emitWith reports a violation with an already-decoded witness
// configuration, deduplicating identical findings produced by
// different interpretation contexts or worlds.
func (r *liftedRun) emitWith(cfg featmodel.Configuration, family string, v Violation) {
	key := family + "\x00" + v.Path + "\x00" + v.Property + "\x00" + v.Rule + "\x00" + v.Message
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.findings = append(r.findings, LiftedFinding{Family: family, Violation: v, Config: cfg})
}

// sink is the lifted family's rule sink: reports are filtered by the
// session's reachability oracle and carry the decoded witness.
func (r *liftedRun) sink(family string) sink {
	return sink{
		reach: r.reachable,
		emit:  func(cfg featmodel.Configuration, v Violation) { r.emitWith(cfg, family, v) },
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
		r.emit("apply", c.Cond, Violation{
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
	cond   *featmodel.Expr
	value  *dts.Value
	origin dts.Origin
}

// chosenOptions converts a lifted property's variant list into its
// mutually exclusive chosen-value options under last-writer-wins
// projection: variant i is chosen exactly when its guard holds and no
// later variant's guard does (later deltas append later), and the
// property is absent when no guard holds. Options whose guard is
// structurally false (an unconditional later variant shadows them) are
// omitted. A nil property yields the single always-absent option.
func chosenOptions(lp *delta.LiftedProperty) []valueOption {
	if lp == nil || len(lp.Variants) == 0 {
		return []valueOption{{}}
	}
	vs := lp.Variants
	var opts []valueOption
	var laterNeg *featmodel.Expr // ∧ ¬cond_j for every variant j after i
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		opts = append(opts, valueOption{
			cond:   featmodel.AndOpt(v.Cond, laterNeg),
			value:  &v.Value,
			origin: v.Origin,
		})
		if v.Cond == nil {
			// An unconditional write shadows every earlier variant and
			// makes absence impossible.
			return opts
		}
		laterNeg = featmodel.AndOpt(laterNeg, featmodel.Not(v.Cond))
	}
	return append(opts, valueOption{cond: laterNeg}) // absent
}

// cellOption is one guarded value of a #address-cells/#size-cells-style
// property, with the concrete default applied for absent options.
type cellOption struct {
	cond *featmodel.Expr
	n    int
}

// cellOptions mirrors dts.Node.CellValue over a lifted node: the first
// u32 cell of each chosen option, falling back to def when the option
// is absent or has no cells.
func cellOptions(ln *delta.LiftedNode, name string, def int) []cellOption {
	var out []cellOption
	for _, o := range chosenOptions(ln.Prop(name)) {
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
	cond *featmodel.Expr
	kind addr.Kind
}

func kindOptions(ln *delta.LiftedNode) []kindOption {
	// One option per distinct kind, guards disjoined, in first-seen order
	// for determinism.
	var out []kindOption
	for _, d := range chosenOptions(ln.Prop("device_type")) {
		dt := ""
		if d.value != nil {
			if ss := d.value.Strings(); len(ss) > 0 {
				dt = ss[0]
			}
		}
		for _, c := range chosenOptions(ln.Prop("compatible")) {
			var compatible []string
			if c.value != nil {
				compatible = c.value.Strings()
			}
			kind, cond := addr.KindOf(dt, compatible), featmodel.AndOpt(d.cond, c.cond)
			if k := slices.IndexFunc(out, func(o kindOption) bool { return o.kind == kind }); k >= 0 {
				out[k].cond = featmodel.OrOpt(out[k].cond, cond)
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
	cond      *featmodel.Expr
	ac, sc    int
	width     int
	translate addr.Translator
}

// collectLiftedRegions mirrors addr.CollectRegions over the merged
// tree: it only enumerates options, splitting into interpretation
// contexts wherever a cell-size or ranges property is variant, and
// decodes each reg and ranges option with the concrete collector's
// steps (addr.DecodeReg, addr.Translator.Through). Decoding problems
// are emitted as guarded "semantic:regions" findings, like the concrete
// collector's error return. It returns the root #address-cells options
// (each fixing a bit width) and the guarded region variants.
func (r *liftedRun) collectLiftedRegions(lt *delta.LiftedTree) ([]cellOption, []guardedRegion) {
	rootACs := cellOptions(lt.Root, "#address-cells", 2)

	var rootCtxs []interpCtx
	for _, acO := range rootACs {
		width := addr.BitWidth(acO.n)
		for _, scO := range cellOptions(lt.Root, "#size-cells", 1) {
			rootCtxs = append(rootCtxs, interpCtx{
				cond:      featmodel.AndOpt(acO.cond, scO.cond),
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

			// Decode this node's reg under every context × reg option,
			// fanning out per kind option. Presence conditions are
			// absolute, so n.Cond alone accounts for the whole ancestor
			// chain.
			regOpts := chosenOptions(n.Prop("reg"))
			kinds := kindOptions(n)
			for _, ro := range regOpts {
				if ro.value == nil {
					continue
				}
				for _, ictx := range ctxs {
					if ictx.sc <= 0 {
						continue
					}
					g0 := featmodel.AndOpt(n.Cond, featmodel.AndOpt(ictx.cond, ro.cond))
					var errs []error
					regs, errs = addr.DecodeReg(regs[:0], childPath, ro.value.U32s(), ictx.ac, ictx.sc,
						ictx.translate, 0, ro.origin)
					for _, err := range errs {
						r.emit("semantic", g0, regionsViolation(err))
					}
					for _, rg := range regs {
						for _, ko := range kinds {
							rg.Kind = ko.kind
							out = append(out, guardedRegion{
								reg:   rg,
								cond:  featmodel.AndOpt(g0, ko.cond),
								width: ictx.width,
							})
						}
					}
				}
			}

			// Compose the child contexts: each parent context splits on
			// this node's #address-cells, #size-cells and ranges
			// options.
			acOpts := cellOptions(n, "#address-cells", 2)
			scOpts := cellOptions(n, "#size-cells", 1)
			rOpts := chosenOptions(n.Prop("ranges"))
			var childCtxs []interpCtx
			for _, ictx := range ctxs {
				for _, acO := range acOpts {
					for _, scO := range scOpts {
						for _, rO := range rOpts {
							cond := featmodel.AndOpt(ictx.cond,
								featmodel.AndOpt(acO.cond, featmodel.AndOpt(scO.cond, rO.cond)))
							tr, err := ictx.translate.Through(childPath, rO.value, acO.n, ictx.ac, scO.n)
							if err != nil {
								r.emit("semantic", featmodel.AndOpt(n.Cond, cond), regionsViolation(err))
							}
							childCtxs = append(childCtxs, interpCtx{
								cond: cond, ac: acO.n, sc: scO.n,
								width: ictx.width, translate: tr,
							})
						}
					}
				}
			}
			// Most cross-property guard combinations are mutually
			// unsatisfiable (e.g. "veth0 chose this ac" ∧ "veth1 chose
			// that sc" under an XOR group); prune them through the
			// session before the cap so reachable contexts are never
			// sacrificed to unreachable ones.
			if len(childCtxs) > 1 {
				kept := childCtxs[:0]
				for _, c := range childCtxs {
					if ok, _ := r.reachable(featmodel.AndOpt(n.Cond, c.cond)); ok {
						kept = append(kept, c)
					}
				}
				childCtxs = kept
			}
			if len(childCtxs) > maxInterpContexts {
				r.emit("semantic", n.Cond, Violation{
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
	sc := &SemanticChecker{CheckMemoryBanks: r.lc.CheckMemoryBanks}
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
		if cfg, ok := s.holds(a.cond, b.cond); ok {
			for _, v := range (Collision{A: a.reg, B: b.reg, Witness: h.witness}).Violations() {
				s.emit(cfg, v)
			}
		}
	}
}

// schemaFamily runs the lifted syntactic family: every node is checked
// in each of its "worlds" — one concrete combination of chosen property
// options (and the parent's cell properties, which the reg-like arity
// rules read) — against the schemas selecting that world's node shape.
// Unreachable worlds are pruned by one Unsat each before any rule is
// evaluated.
func (r *liftedRun) schemaFamily(lt *delta.LiftedTree) {
	if r.lc.Schemas == nil {
		return
	}
	var rec func(parent *delta.LiftedNode, path string)
	rec = func(parent *delta.LiftedNode, path string) {
		pAc := cellOptions(parent, "#address-cells", 2)
		pSc := cellOptions(parent, "#size-cells", 1)
		for _, n := range parent.Children {
			childPath := path + "/" + n.Name
			r.schemaNode(n, childPath, pAc, pSc)
			if r.err != nil {
				return
			}
			rec(n, childPath)
		}
	}
	rec(lt.Root, "")
}

func (r *liftedRun) schemaNode(n *delta.LiftedNode, path string, pAc, pSc []cellOption) {
	type world struct {
		cond  *featmodel.Expr
		props []*dts.Property
	}
	worlds := []world{{}}
	truncated := false
	for _, lp := range n.Props {
		opts := chosenOptions(lp)
		if len(worlds)*len(opts) > maxSchemaWorlds {
			truncated = true
			break
		}
		next := make([]world, 0, len(worlds)*len(opts))
		for _, w := range worlds {
			for _, o := range opts {
				nw := world{cond: featmodel.AndOpt(w.cond, o.cond), props: w.props}
				if o.value != nil {
					// The world node is only read (schema selection
					// and checkNodeSyntax), so it shares the variant's
					// value instead of copying it.
					nw.props = append(w.props[:len(w.props):len(w.props)], &dts.Property{
						Name: lp.Name, Value: *o.value, Origin: o.origin,
					})
				}
				next = append(next, nw)
			}
		}
		worlds = next
		// Prune unsatisfiable option combinations through the session
		// before the blowup check, like the interpretation contexts.
		if len(worlds) > 8 {
			kept := worlds[:0]
			for _, w := range worlds {
				if ok, _ := r.reachable(featmodel.AndOpt(n.Cond, w.cond)); ok {
					kept = append(kept, w)
				}
			}
			worlds = kept
		}
	}
	if truncated {
		r.emit("schema", n.Cond, Violation{
			Path: path,
			Rule: "lifted:schema-worlds",
			Message: fmt.Sprintf(
				"property variant combinations exceed the lifted world cap (%d); schema coverage of this node is truncated",
				maxSchemaWorlds),
		})
	}
	for _, w := range worlds {
		cond := featmodel.AndOpt(n.Cond, w.cond)
		if ok, _ := r.reachable(cond); !ok {
			continue
		}
		r.lc.stats.Worlds++
		node := &dts.Node{Name: n.Name, Origin: n.Origin, Properties: w.props}
		schemas := r.lc.Schemas.For(node)
		if len(schemas) == 0 {
			continue
		}
		for _, pa := range pAc {
			for _, ps := range pSc {
				wcond := featmodel.AndOpt(cond, featmodel.AndOpt(pa.cond, ps.cond))
				parent := parentShell(pa.n, ps.n)
				for _, sc := range schemas {
					vs, err := checkNodeSyntax(r.ctx, node, parent, path, sc)
					for _, v := range vs {
						r.emit("schema", wcond, v)
					}
					if err != nil {
						r.err = err
						return
					}
				}
			}
		}
	}
}

// parentShell builds the minimal concrete parent node checkNodeSyntax
// needs: its cell-size properties, which reg-like arity rules consult.
func parentShell(ac, sc int) *dts.Node {
	cells := func(v int) dts.Value {
		return dts.Value{Chunks: []dts.Chunk{{Kind: dts.ChunkCells, CellList: []dts.Cell{{Val: uint32(v)}}}}}
	}
	return &dts.Node{Name: "parent", Properties: []*dts.Property{
		{Name: "#address-cells", Value: cells(ac)},
		{Name: "#size-cells", Value: cells(sc)},
	}}
}

// interrupts runs the interrupt-uniqueness rule over guarded claims:
// one per cell of each chosen interrupts option.
func (r *liftedRun) interrupts(lt *delta.LiftedTree) {
	var claims []irqClaim
	lt.Root.Walk(func(path string, n *delta.LiftedNode) bool {
		for _, o := range chosenOptions(n.Prop("interrupts")) {
			if o.value != nil {
				claims = appendIRQClaims(claims, path, o.value, featmodel.AndOpt(n.Cond, o.cond), o.origin)
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
