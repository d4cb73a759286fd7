package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"llhsc/internal/baogen"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/schema"
	"llhsc/internal/service"
)

// layerSpans are the span names the replay times, one per public call
// into a layer. A layer's metric is "<span>_us", its self time: the
// span's duration less the spans nested in it (checker families run
// inside checkcache.lookup on a miss).
var layerSpans = []string{
	"service.decode", "service.encode",
	"preproc.parse",
	"dts.parse", "dts.print", "dts.lint",
	"schema.validate",
	"featmodel.parse",
	"delta.parse", "delta.apply", "delta.lift",
	"constraints.allocation",
	"constraints.syntactic", "constraints.semantic", "constraints.memreserve", "constraints.interrupt",
	"constraints.lifted",
	"checkcache.lookup",
	"baogen.render",
}

// counts accumulates one request's work counters by metric name.
type counts map[string]float64

// replayer re-runs requests the way the service does, calling each
// layer's public functions from here and timing every call in a span of
// its own. It runs serially (the service may fan products and families
// out over cores) and keeps its own check cache, sized like the
// service's, which sees the same requests in the same order.
type replayer struct {
	cache   *checkcache.Cache
	maxBody int
}

// do replays one request under root and returns the response body the
// service would encode.
func (r *replayer) do(ctx context.Context, endpoint string, body []byte, root *obs.Span, c counts) ([]byte, error) {
	if endpoint == "/lint" {
		return r.lint(ctx, body, root, c)
	}
	return r.check(ctx, body, root, c)
}

func decode(body []byte, v any, root *obs.Span) error {
	sp := root.StartChild("service.decode")
	defer sp.End()
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

func encode(v any, root *obs.Span) ([]byte, error) {
	sp := root.StartChild("service.encode")
	defer sp.End()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func countNodes(n *dts.Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// parseSource mirrors the service's parse step: the cpp-style
// preprocessor (when asked for, or when macros are defined) with the
// request's includes as its file system, then the DTS parser.
func (r *replayer) parseSource(file, src string, includes, defines map[string]string, preprocess bool, root *obs.Span, c counts) (*dts.Tree, error) {
	popts := []dts.ParseOption{
		dts.WithIncluder(dts.MapIncluder(includes)),
		dts.WithMaxSourceBytes(r.maxBody),
	}
	if preprocess || len(defines) > 0 {
		sp := root.StartChild("preproc.parse")
		res, err := preproc.Source(file, src, preproc.Options{
			FS:           preproc.MapFS(includes),
			IncludePaths: []string{"."},
			Defines:      defines,
			MaxBytes:     r.maxBody,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		src = res.Text
	}
	sp := root.StartChild("dts.parse")
	tree, err := dts.Parse(file, src, popts...)
	sp.End()
	if err != nil {
		return nil, err
	}
	c["dts.nodes"] += float64(countNodes(tree.Root))
	return tree, nil
}

func (r *replayer) lint(ctx context.Context, body []byte, root *obs.Span, c counts) ([]byte, error) {
	var req service.LintRequest
	if err := decode(body, &req, root); err != nil {
		return nil, err
	}
	tree, err := r.parseSource("input.dts", req.DTS, req.Includes, req.Defines, req.Preprocess, root, c)
	if err != nil {
		return nil, err
	}
	resp := &service.LintResponse{}
	sp := root.StartChild("dts.lint")
	warnings := tree.Lint()
	sp.End()
	for _, w := range warnings {
		resp.Warnings = append(resp.Warnings, w.String())
	}
	sp = root.StartChild("schema.validate")
	structural := schema.StandardSet().Validate(tree)
	sp.End()
	for _, v := range structural {
		resp.Structural = append(resp.Structural, service.Violation{
			Path: v.Path, Property: v.Property, Rule: v.SchemaID, Message: v.Message,
		})
	}
	if req.Semantic {
		vs, err := r.families(ctx, tree, false, root, c)
		if err != nil {
			return nil, err
		}
		resp.Semantic = toViolations(vs)
	}
	resp.OK = len(resp.Warnings) == 0 && len(resp.Structural) == 0 && len(resp.Semantic) == 0
	return encode(resp, root)
}

// families runs the checker families over one tree; /check runs the
// syntactic family first, /lint's semantic block runs without it.
// Verdicts are sets, so the order within a tree does not matter.
func (r *replayer) families(ctx context.Context, tree *dts.Tree, syntactic bool, root *obs.Span, c counts) ([]constraints.Violation, error) {
	var out []constraints.Violation
	if syntactic {
		sp := root.StartChild("constraints.syntactic")
		vs, err := constraints.NewSyntacticChecker(schema.StandardSet()).CheckContext(ctx, tree)
		sp.End()
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	sp := root.StartChild("constraints.semantic")
	sem := constraints.NewSemanticChecker()
	_, vs, err := sem.CheckContext(ctx, tree)
	sp.End()
	if err != nil {
		return nil, err
	}
	st := sem.LastStats()
	c["constraints.semantic_pairs"] += float64(st.Pairs)
	c["constraints.pairs_pruned"] += float64(st.PairsPruned)
	c["constraints.word_decided"] += float64(st.WordDecided)
	c["constraints.solver_calls"] += float64(st.SolverCalls)
	out = append(out, vs...)

	for _, name := range []string{"constraints.memreserve", "constraints.interrupt"} {
		var fst constraints.SemanticStats
		sp := root.StartChild(name)
		if name == "constraints.memreserve" {
			vs, err = constraints.MemReserveChecker{Stats: &fst}.CheckContext(ctx, tree)
		} else {
			vs, err = constraints.InterruptChecker{Stats: &fst}.CheckContext(ctx, tree)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		c["constraints.solver_calls"] += float64(fst.SolverCalls)
		out = append(out, vs...)
	}
	return out, nil
}

func (r *replayer) check(ctx context.Context, body []byte, root *obs.Span, c counts) ([]byte, error) {
	var req service.CheckRequest
	if err := decode(body, &req, root); err != nil {
		return nil, err
	}
	tree, err := r.parseSource("core.dts", req.CoreDTS, req.Includes, req.Defines, req.Preprocess, root, c)
	if err != nil {
		return nil, err
	}
	sp := root.StartChild("delta.parse")
	deltas, err := delta.Parse("deltas", req.Deltas)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.StartChild("featmodel.parse")
	model, err := featmodel.ParseModel("featuremodel", req.FeatureModel)
	sp.End()
	if err != nil {
		return nil, err
	}
	configs := make([]featmodel.Configuration, len(req.VMs))
	for i, names := range req.VMs {
		cfg := featmodel.ConfigOf(names...)
		for name := range cfg {
			for p := model.Parent(name); p != nil; p = model.Parent(p.Name) {
				cfg[p.Name] = true
			}
		}
		cfg[model.Root.Name] = true
		configs[i] = cfg
	}
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	if mode == core.ModeLifted && r.cache != nil {
		return nil, fmt.Errorf("replay: lifted mode with a check cache is not replayed")
	}

	sp = root.StartChild("constraints.allocation")
	alloc, err := constraints.NewAllocationChecker(model, len(configs))
	if err != nil {
		sp.End()
		return nil, err
	}
	before := alloc.Stats()
	allocation, err := alloc.CheckContext(ctx, configs)
	d := alloc.Stats().Sub(before)
	sp.End()
	if err != nil {
		return nil, err
	}
	c["sat.conflicts"] += float64(d.Conflicts)
	c["sat.propagations"] += float64(d.Propagations)

	resp := &service.CheckResponse{Allocation: toViolations(allocation)}
	if mode == core.ModeLifted {
		if resp.Lifted, err = r.lifted(ctx, tree, deltas, model, root, c); err != nil {
			return nil, err
		}
	}

	var schemaFP string
	if r.cache != nil {
		schemaFP = schema.StandardSet().Fingerprint()
	}
	product := func(name string, cfg featmodel.Configuration) (*dts.Tree, service.VMResult, error) {
		span := root.StartChild(name)
		defer span.End()
		sp := span.StartChild("delta.apply")
		t, trace, err := deltas.ApplyContext(ctx, tree, cfg, 0)
		sp.End()
		if err != nil {
			return nil, service.VMResult{}, err
		}
		for _, dn := range trace {
			c["delta.ops"] += float64(len(deltas.Delta(dn).Ops))
		}
		sp = span.StartChild("dts.print")
		printed := t.Print()
		sp.End()
		c["dts.nodes"] += float64(countNodes(t.Root))
		res := service.VMResult{Name: name, Deltas: trace, DTS: printed}
		if mode == core.ModeLifted {
			return t, res, nil
		}
		var vs []constraints.Violation
		if r.cache == nil {
			vs, err = r.families(ctx, t, true, span, c)
		} else {
			vs, err = r.cached(ctx, t, printed, schemaFP, span, c)
		}
		res.Violations = toViolations(vs)
		return t, res, err
	}

	vmTrees := make([]*dts.Tree, len(configs))
	for i, cfg := range configs {
		var vm service.VMResult
		if vmTrees[i], vm, err = product(fmt.Sprintf("vm%d", i+1), cfg); err != nil {
			return nil, err
		}
		resp.VMs = append(resp.VMs, vm)
	}
	platformTree, platform, err := product("platform", featmodel.PlatformUnion(configs))
	if err != nil {
		return nil, err
	}
	resp.Platform = platform

	resp.OK = len(resp.Allocation) == 0 && len(resp.Lifted) == 0 && len(resp.Platform.Violations) == 0
	for _, vm := range resp.VMs {
		resp.OK = resp.OK && len(vm.Violations) == 0
	}
	if resp.OK {
		if err := renderArtifacts(resp, platformTree, vmTrees, root); err != nil {
			return nil, err
		}
	}
	return encode(resp, root)
}

// cached consults the replay's check cache for one product tree, keyed
// like the pipeline's: canonical text, blame metadata, schema set. The
// key's solver and mode knobs are constant within a workload, so they
// are left out.
func (r *replayer) cached(ctx context.Context, t *dts.Tree, printed, schemaFP string, parent *obs.Span, c counts) ([]constraints.Violation, error) {
	sp := parent.StartChild("checkcache.lookup")
	defer sp.End()
	before := r.cache.Stats()
	key := checkcache.Key(printed, t.OriginDump(), schemaFP)
	vs, _, err := r.cache.Do(ctx, key, func() ([]constraints.Violation, error) {
		return r.families(ctx, t, true, sp, c)
	})
	after := r.cache.Stats()
	c["checkcache.lookups"] += float64(after.Hits + after.Misses - before.Hits - before.Misses)
	c["checkcache.hits"] += float64(after.Hits - before.Hits)
	c["checkcache.evictions"] += float64(after.Evictions - before.Evictions)
	return vs, err
}

// lifted merges core and deltas into one guarded tree and checks the
// whole product line in one solver session.
func (r *replayer) lifted(ctx context.Context, tree *dts.Tree, deltas *delta.Set, model *featmodel.Model, root *obs.Span, c counts) ([]service.LiftedFinding, error) {
	sp := root.StartChild("delta.lift")
	lt, err := deltas.Lift(tree)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.StartChild("constraints.lifted")
	lc := constraints.NewLiftedChecker(model, schema.StandardSet())
	findings, err := lc.CheckContext(ctx, lt)
	sp.End()
	if err != nil {
		return nil, err
	}
	st := lc.LastStats()
	c["lifted.queries"] += float64(st.Queries)
	c["lifted.pruned"] += float64(st.Pruned)
	c["lifted.word_decided"] += float64(st.WordDecided)
	var out []service.LiftedFinding
	for _, f := range findings {
		out = append(out, service.LiftedFinding{
			Family:    f.Family,
			Violation: toViolations([]constraints.Violation{f.Violation})[0],
			Config:    f.Config.Sorted(),
		})
	}
	return out, nil
}

// renderArtifacts generates the Bao and Jailhouse configurations of a
// passing check.
func renderArtifacts(resp *service.CheckResponse, platformTree *dts.Tree, vmTrees []*dts.Tree, root *obs.Span) error {
	sp := root.StartChild("baogen.render")
	defer sp.End()
	platform, err := baogen.PlatformFromTree(platformTree)
	if err != nil {
		return err
	}
	resp.PlatformC = platform.RenderPlatformC()
	resp.QEMUArgs = baogen.QEMUArgs(platform, "aarch64")
	resp.JailhouseRootC = baogen.RenderJailhouseRootC(platform)
	vms := make([]*baogen.VM, len(vmTrees))
	for i, t := range vmTrees {
		if vms[i], err = baogen.VMFromTree(resp.VMs[i].Name, t); err != nil {
			return err
		}
		resp.JailhouseCellsC = append(resp.JailhouseCellsC, baogen.RenderJailhouseCellC(vms[i]))
	}
	resp.ConfigC = baogen.NewConfig(vms).RenderConfigC()
	return nil
}

func toViolations(vs []constraints.Violation) []service.Violation {
	out := make([]service.Violation, 0, len(vs))
	for _, v := range vs {
		out = append(out, service.Violation{
			Path: v.Path, Property: v.Property, Rule: v.Rule, Message: v.Message, Delta: v.Origin.Delta,
		})
	}
	return out
}
