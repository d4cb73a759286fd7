// Package core implements the llhsc workflow of the paper's Fig. 2:
// starting from a core-module DTS, a delta-module set, a feature model
// and binding schemas, it derives one product DTS per VM plus the
// platform DTS (the union product), discharges the three constraint
// families of Section IV (allocation and syntactic by ground evaluation,
// semantic by word arithmetic, each held to its SAT or SMT encoding by
// the test oracles), and — when everything is provably correct —
// generates the Bao hypervisor configuration files of Listings 3 and 6.
//
// Products are independent, so the pipeline checks them concurrently:
// each VM (and the platform union) is derived and checked by its own
// worker on a pool bounded by Limits.Parallelism. That pool is the only
// fan-out: a worker runs one tree's checker families (syntactic,
// semantic, memreserve, interrupt) one after another. Every worker
// builds its own checkers and writes into a pre-sized report slot, so
// the Report is byte-identical to a serial run regardless of
// scheduling. An optional content-addressed cache (internal/checkcache)
// short-circuits re-checking trees whose canonical text and blame
// metadata were already checked under the same schema set and budget
// knobs.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"llhsc/internal/baogen"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// Limits bounds the resources one pipeline run may consume. The zero
// value imposes no solver or delta limits and uses the default
// parallelism.
type Limits struct {
	// Solver bounds the lifted reachability queries of ModeLifted
	// (deadline, conflicts, learnt-clause memory); no other family
	// issues a solver query.
	Solver sat.Budget
	// MaxDeltaOps caps the number of delta operations applied while
	// deriving each product (0 = unlimited).
	MaxDeltaOps int
	// Parallelism bounds the worker pool that derives and checks
	// products concurrently; each worker checks its tree's families in
	// order. 0 means runtime.GOMAXPROCS(0); 1 runs every product on
	// the calling goroutine. The Report is byte-identical at every
	// setting.
	Parallelism int
}

// parallelism resolves the effective worker count.
func (l Limits) parallelism() int {
	if l.Parallelism > 0 {
		return l.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// LimitError reports a pipeline run cut short by a resource limit or
// cancellation. It wraps the underlying cause — a *sat.LimitError, a
// *delta.StepLimitError, or a context error — so callers can classify
// it with errors.Is/As.
type LimitError struct {
	// Phase names the pipeline stage that was interrupted:
	// "allocation", "lifted", "vm:<name>", or "platform".
	Phase string
	Err   error
	// Stats is the run's work summary at the stop.
	Stats RunStats
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("core: %s check stopped: %v", e.Phase, e.Err)
}

// Unwrap returns the underlying cause.
func (e *LimitError) Unwrap() error { return e.Err }

// limitError stops the run in phase with cause err, carrying the run's
// stats so far.
func (st *runState) limitError(phase string, err error) *LimitError {
	return &LimitError{Phase: phase, Err: err, Stats: st.snapshot()}
}

// Pipeline is a configured llhsc run.
type Pipeline struct {
	// Core is the core-module DTS (Listing 1).
	Core *dts.Tree
	// Deltas is the product line's delta-module set (Listing 4).
	Deltas *delta.Set
	// Model is the feature model (Fig. 1a).
	Model *featmodel.Model
	// Schemas are the binding schemas for the syntactic checker;
	// schema.StandardSet() covers the running example.
	Schemas *schema.Set
	// VMConfigs selects one product per VM (Figs. 1b/1c).
	VMConfigs []featmodel.Configuration
	// VMNames optionally names the VMs ("vm1", "vm2", ... by default).
	VMNames []string
	// Mode selects enumerative (default) or family-based lifted
	// checking (see Mode and internal/core/lifted.go). Folded into the
	// cache key: a lifted verdict covers the whole product line and
	// must never be served as a per-tree one, or vice versa.
	Mode Mode
	// Metrics, when non-nil, receives each run's aggregate solver and
	// cache counters (see PipelineMetrics). Safe to share across
	// pipelines; the server shares one instance across requests.
	Metrics *PipelineMetrics
	// Cache, when non-nil, memoizes per-tree check results keyed by
	// the canonical tree text, the tree's origin dump (blame metadata
	// is invisible in the printed text but embedded in cached
	// violations), the schema-set fingerprint and the deterministic
	// solver-budget knobs. Identical trees — across VMs, the platform
	// union, or repeated runs — are checked once.
	Cache *checkcache.Cache
}

// VMResult is the outcome for one VM. Tree shares every node its deltas
// do not edit with Pipeline.Core, so it is read-only: Clone it to edit.
type VMResult struct {
	Name       string
	Config     featmodel.Configuration
	Trace      []string // applied delta modules, in order
	Tree       *dts.Tree
	DTS        string
	Violations []constraints.Violation
}

// PlatformResult is the outcome for the platform (union) product. Tree
// is read-only, as VMResult.Tree is.
type PlatformResult struct {
	Config     featmodel.Configuration
	Trace      []string
	Tree       *dts.Tree
	DTS        string
	Violations []constraints.Violation
}

// Report is the result of a pipeline run.
type Report struct {
	Allocation []constraints.Violation
	VMs        []VMResult
	Platform   PlatformResult

	// Lifted holds the family-based findings of a ModeLifted run: every
	// constraint violation ANY valid configuration of the product line
	// exhibits, each with a decoded witness configuration. Always empty
	// under ModeEnumerate (where per-VM Violations carry the verdict);
	// under ModeLifted the per-VM and platform Violations stay empty.
	Lifted []constraints.LiftedFinding

	// Generated artifacts; empty unless OK().
	PlatformC string
	ConfigC   string
	QEMUArgs  []string

	// Jailhouse equivalents (the paper's "others like Jailhouse can
	// also be supported"): the root-cell config plus one cell config
	// per VM, indexed like VMs.
	JailhouseRootC  string
	JailhouseCellsC []string

	// Stats summarizes the solver and cache work of this run. It is
	// informational — not part of the determinism contract (the
	// fingerprinted report parts are identical across schedules; which
	// product pays for a shared cache entry is not).
	Stats RunStats
}

// OK reports whether every check passed.
func (r *Report) OK() bool {
	if len(r.Allocation) > 0 || len(r.Lifted) > 0 || len(r.Platform.Violations) > 0 {
		return false
	}
	for _, vm := range r.VMs {
		if len(vm.Violations) > 0 {
			return false
		}
	}
	return true
}

// AllViolations flattens every violation in the report (for lifted
// findings, the inner violation without its witness configuration).
func (r *Report) AllViolations() []constraints.Violation {
	var out []constraints.Violation
	out = append(out, r.Allocation...)
	for _, f := range r.Lifted {
		out = append(out, f.Violation)
	}
	for _, vm := range r.VMs {
		out = append(out, vm.Violations...)
	}
	out = append(out, r.Platform.Violations...)
	return out
}

// Validate checks that the pipeline is completely configured.
func (p *Pipeline) Validate() error {
	switch {
	case p.Core == nil:
		return errors.New("core: missing core-module DTS")
	case p.Deltas == nil:
		return errors.New("core: missing delta set")
	case p.Model == nil:
		return errors.New("core: missing feature model")
	case p.Schemas == nil:
		return errors.New("core: missing schema set")
	case len(p.VMConfigs) == 0:
		return errors.New("core: no VM configurations")
	case len(p.VMNames) > 0 && len(p.VMNames) != len(p.VMConfigs):
		return errors.New("core: VMNames length does not match VMConfigs")
	}
	return nil
}

// Run executes the full workflow. An error is returned only for
// structural failures (invalid pipeline, delta application errors);
// constraint violations are reported in the Report, not as errors.
func (p *Pipeline) Run() (*Report, error) {
	return p.RunContext(context.Background(), Limits{})
}

// runState carries the per-run configuration shared by every product
// worker, and accumulates the run's work statistics.
type runState struct {
	limits   Limits
	schemaFP string // schema-set fingerprint, "" when Cache is nil
	knobs    string // verdict-changing knobs, "" when Cache is nil

	mu    sync.Mutex
	stats RunStats
}

// RunContext executes the full workflow under a context and resource
// limits. Cancellation or an exhausted budget aborts the run with a
// *LimitError naming the interrupted phase (errors.Is also matches the
// underlying ctx.Err() / *sat.LimitError). Constraint violations are
// reported in the Report, not as errors.
//
// When the context carries an obs.Span (obs.ContextWithSpan), the run
// records a child span per phase — allocation, one per product, baogen
// — with solver and cache attributes; with no span in the context the
// tracing path is a single nil check per phase. Run statistics are
// always accumulated into Report.Stats and, when Pipeline.Metrics is
// set, folded into the shared registry even if the run errors out.
func (p *Pipeline) RunContext(ctx context.Context, limits Limits) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	report := AcquireReport()
	workers := limits.parallelism()
	st := &runState{limits: limits}
	if p.Cache != nil {
		st.schemaFP = p.Schemas.Fingerprint()
		// Every deterministic knob that can change a verdict, for the
		// per-product and lifted cache keys alike.
		st.knobs = fmt.Sprintf("conflicts=%d;learntlits=%d;mode=%s",
			limits.Solver.MaxConflicts, limits.Solver.MaxLearntLits, p.Mode)
	}
	root := obs.SpanFromContext(ctx) // read once; nil disables tracing
	if p.Metrics != nil {
		defer func() { p.Metrics.observe(st.snapshot()) }()
	}

	// ---- resource allocation (Section IV-A) ----
	alloc, err := constraints.NewAllocationChecker(p.Model, len(p.VMConfigs))
	if err != nil {
		return nil, err
	}
	allocSpan := root.StartChild("allocation")
	var allocStart time.Time
	if p.Metrics != nil {
		allocStart = time.Now()
	}
	report.Allocation, err = alloc.CheckContext(ctx, p.VMConfigs)
	allocStats := FamilyStats{Checks: 1}
	if p.Metrics != nil {
		p.Metrics.observeFamily("allocation", familyTier(allocStats), time.Since(allocStart).Seconds())
	}
	st.addFamily("allocation", allocStats)
	allocSpan.End()
	if err != nil {
		return nil, st.limitError("allocation", err)
	}

	// ---- family-based lifted checking (DESIGN.md §14) ----
	// One merged tree, one solver session, the whole product line.
	// Products are still derived below for traces, DTS renderings and
	// artifact generation, but skip their per-tree family checks.
	if p.Mode == ModeLifted {
		if err := p.runLifted(ctx, st, report, root); err != nil {
			return nil, err
		}
	}

	// ---- per-VM products + the platform union ----
	report.vmSlots(len(p.VMConfigs))
	union := featmodel.PlatformUnion(p.VMConfigs)

	if workers <= 1 {
		for i := range p.VMConfigs {
			span := root.StartChild("vm:" + p.vmName(i))
			if err := p.deriveAndCheckVM(ctx, st, i, &report.VMs[i], span); err != nil {
				return nil, err
			}
		}
		span := root.StartChild("platform")
		if err := p.deriveAndCheckPlatform(ctx, st, union, &report.Platform, span); err != nil {
			return nil, err
		}
	} else if err := p.runProductsParallel(ctx, st, workers, union, report, root); err != nil {
		return nil, err
	}

	if !report.OK() {
		report.Stats = st.snapshot()
		return report, nil
	}

	// ---- artifact generation (Listings 3 and 6) ----
	genSpan := root.StartChild("baogen")
	defer genSpan.End()
	platform, err := baogen.PlatformFromTree(report.Platform.Tree)
	if err != nil {
		return nil, err
	}
	report.PlatformC = platform.RenderPlatformC()
	report.QEMUArgs = baogen.QEMUArgs(platform, "aarch64")
	report.JailhouseRootC = baogen.RenderJailhouseRootC(platform)

	vms := make([]*baogen.VM, len(report.VMs))
	for i, vm := range report.VMs {
		bvm, err := baogen.VMFromTree(vm.Name, vm.Tree)
		if err != nil {
			return nil, err
		}
		vms[i] = bvm
		report.JailhouseCellsC = append(report.JailhouseCellsC,
			baogen.RenderJailhouseCellC(bvm))
	}
	report.ConfigC = baogen.NewConfig(vms).RenderConfigC()
	report.Stats = st.snapshot()
	return report, nil
}

// vmName resolves VM i's display name.
func (p *Pipeline) vmName(i int) string {
	if len(p.VMNames) > 0 {
		return p.VMNames[i]
	}
	return "vm" + strconv.Itoa(i+1)
}

// runProductsParallel derives and checks every VM product plus the
// platform union on a bounded worker pool (fanOut). Results land in
// pre-sized report slots, so the outcome is independent of scheduling,
// and so is the reported error and its phase.
func (p *Pipeline) runProductsParallel(ctx context.Context, st *runState, workers int, union featmodel.Configuration, report *Report, root *obs.Span) error {
	jobs := len(report.VMs) + 1 // VMs plus the platform union
	// Pre-create the per-product spans in index order, before any
	// worker runs: StartChild appends under the parent's lock, so
	// creating them here keeps the span tree identical to a serial
	// run's regardless of which worker finishes first.
	spans := make([]*obs.Span, jobs)
	if root != nil {
		for i := range report.VMs {
			spans[i] = root.StartChild("vm:" + p.vmName(i))
		}
		spans[jobs-1] = root.StartChild("platform")
	}
	return fanOut(ctx, jobs, workers, func(ctx context.Context, i int) error {
		if i < len(report.VMs) {
			return p.deriveAndCheckVM(ctx, st, i, &report.VMs[i], spans[i])
		}
		return p.deriveAndCheckPlatform(ctx, st, union, &report.Platform, spans[i])
	})
}

// fanOut runs job(ctx, i) for every i < n on at most workers goroutines
// and returns the error a serial run would report. Each job runs under
// its own context, and a failure in job i cancels only the jobs after
// it: a lower-index job that fails on its own still records its own
// error instead of an induced cancellation, so the lowest-index primary
// failure is the one a serial run, which stops there, reports. A panic
// cancels every job and is re-raised on the calling goroutine once the
// pool drains, so the server's panic recovery still contains it.
func fanOut(ctx context.Context, n, workers int, job func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	type jobCtx struct {
		ctx    context.Context
		cancel context.CancelFunc
	}
	jobs := make([]jobCtx, n)
	for i := range jobs {
		jobs[i].ctx, jobs[i].cancel = context.WithCancel(ctx)
	}
	cancelFrom := func(i int) {
		for _, j := range jobs[i:] {
			j.cancel()
		}
	}
	defer cancelFrom(0)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  interface{}
	)
	idx := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicVal = r })
							cancelFrom(0)
						}
					}()
					if err := job(jobs[i].ctx, i); err != nil {
						errs[i] = err
						cancelFrom(i + 1)
					}
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return lowestPrimaryError(ctx, errs)
}

// lowestPrimaryError picks the error a parallel fan-out reports. A
// serial run always fails on the lowest-index job, but in a pool the
// first observed failure is scheduling-dependent, and later jobs
// canceled because of it record bare context.Canceled errors that
// would mask the real cause. Preferring the lowest-index failure that
// is not an induced cancellation — unless the caller itself canceled,
// in which case every cancellation is genuine — keeps the reported
// error (and its phase) independent of worker count and timing.
func lowestPrimaryError(ctx context.Context, errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if ctx.Err() == nil && errors.Is(err, context.Canceled) {
			continue // canceled by a sibling's failure, not a primary cause
		}
		return err
	}
	return fallback
}

// deriveAndCheckVM derives the product for VM i, checks it, and fills
// the result slot. Errors come back in the same shapes as a serial
// run: limit causes wrapped in *LimitError, structural delta failures
// as plain errors naming the VM.
func (p *Pipeline) deriveAndCheckVM(ctx context.Context, st *runState, i int, out *VMResult, span *obs.Span) error {
	span.Begin() // pre-created for deterministic order; work starts here
	defer span.End()
	name := p.vmName(i)
	out.Name = name
	out.Config = p.VMConfigs[i]
	derive := span.StartChild("derive")
	tree, trace, err := p.Deltas.ApplyContext(ctx, p.Core, p.VMConfigs[i], st.limits.MaxDeltaOps)
	derive.SetInt("deltas", uint64(len(trace)))
	derive.End()
	if err != nil {
		if isLimitCause(err) {
			return st.limitError("vm:"+name, err)
		}
		return fmt.Errorf("core: VM %s: %w", name, err)
	}
	out.Tree = tree
	out.Trace = trace
	out.DTS, out.Violations, err = p.checkProductTree(ctx, st, tree, span)
	if err != nil {
		return st.limitError("vm:"+name, err)
	}
	return nil
}

// deriveAndCheckPlatform derives and checks the union product.
func (p *Pipeline) deriveAndCheckPlatform(ctx context.Context, st *runState, union featmodel.Configuration, out *PlatformResult, span *obs.Span) error {
	span.Begin()
	defer span.End()
	derive := span.StartChild("derive")
	tree, trace, err := p.Deltas.ApplyContext(ctx, p.Core, union, st.limits.MaxDeltaOps)
	derive.SetInt("deltas", uint64(len(trace)))
	derive.End()
	if err != nil {
		if isLimitCause(err) {
			return st.limitError("platform", err)
		}
		return fmt.Errorf("core: platform: %w", err)
	}
	out.Config = union
	out.Trace = trace
	out.Tree = tree
	out.DTS, out.Violations, err = p.checkProductTree(ctx, st, tree, span)
	if err != nil {
		return st.limitError("platform", err)
	}
	return nil
}

// checkProductTree renders the tree, consults the cache, and runs the
// checker families. The canonical text is printed once and shared
// between the report and the cache key. The key also folds in the
// tree's origin dump: violations embed blame metadata (dts.Origin —
// delta name, source position) that the printed text does not capture,
// so two products with identical text but different provenance must
// not share a cache entry.
func (p *Pipeline) checkProductTree(ctx context.Context, st *runState, tree *dts.Tree, span *obs.Span) (string, []constraints.Violation, error) {
	printed := tree.Print()
	if p.Mode == ModeLifted {
		// The lifted session already discharged every family for the
		// whole product line — which includes this product.
		return printed, nil, nil
	}
	check := span.StartChild("check")
	defer check.End()
	if p.Cache == nil {
		violations, err := p.checkTree(ctx, st, tree, check)
		return printed, violations, err
	}
	// The origin dump is streamed into the key, never held whole.
	kh := checkcache.NewHasher()
	kh.Part(printed)
	if err := kh.Stream(tree.WriteOriginDump); err != nil {
		return printed, nil, err
	}
	kh.Part(st.schemaFP)
	kh.Part(st.knobs)
	key := kh.Sum()
	violations, hit, err := p.Cache.Do(ctx, key, func() ([]constraints.Violation, error) {
		return p.checkTree(ctx, st, tree, check)
	})
	if hit {
		check.SetAttr("cache", "hit")
	} else {
		check.SetAttr("cache", "miss")
	}
	st.addCache(hit)
	return printed, violations, err
}

// checkerFamily is one per-tree checker family: a name (the span
// label, stats key and /metrics family label) and the check that
// returns the family's violations over one tree plus its solver-work
// summary.
type checkerFamily struct {
	name  string
	check func(*Pipeline, context.Context, *dts.Tree) ([]constraints.Violation, FamilyStats, error)
}

// checkerFamilies lists the per-tree families in the report's merge
// order.
var checkerFamilies = [...]checkerFamily{
	{"syntactic", func(p *Pipeline, ctx context.Context, tree *dts.Tree) ([]constraints.Violation, FamilyStats, error) {
		vs, err := constraints.NewSyntacticChecker(p.Schemas).CheckContext(ctx, tree)
		return vs, FamilyStats{Checks: 1}, err
	}},
	{"semantic", func(_ *Pipeline, ctx context.Context, tree *dts.Tree) ([]constraints.Violation, FamilyStats, error) {
		sem := constraints.NewSemanticChecker()
		_, vs, err := sem.CheckContext(ctx, tree)
		return vs, familyStatsFrom(sem.LastStats()), err
	}},
	{"memreserve", func(_ *Pipeline, ctx context.Context, tree *dts.Tree) ([]constraints.Violation, FamilyStats, error) {
		var fst constraints.SemanticStats
		vs, err := constraints.MemReserveChecker{Stats: &fst}.CheckContext(ctx, tree)
		return vs, familyStatsFrom(fst), err
	}},
	{"interrupt", func(_ *Pipeline, ctx context.Context, tree *dts.Tree) ([]constraints.Violation, FamilyStats, error) {
		var fst constraints.SemanticStats
		vs, err := constraints.InterruptChecker{Stats: &fst}.CheckContext(ctx, tree)
		return vs, familyStatsFrom(fst), err
	}},
}

// checkTree runs the checker families over one tree, one after another
// on the calling goroutine, and merges their violations in family
// order. It stops at the first family that fails.
func (p *Pipeline) checkTree(ctx context.Context, st *runState, tree *dts.Tree, span *obs.Span) ([]constraints.Violation, error) {
	var out []constraints.Violation
	for _, f := range checkerFamilies {
		vs, err := p.runFamily(ctx, st, f, tree, span)
		out = append(out, vs...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// runFamily executes one family under a child span of span, records its
// stats and annotates the span with the family's solver work.
func (p *Pipeline) runFamily(ctx context.Context, st *runState, f checkerFamily, tree *dts.Tree, span *obs.Span) ([]constraints.Violation, error) {
	var fspan *obs.Span
	if span != nil {
		fspan = span.StartChild("family:" + f.name)
		defer fspan.End()
	}
	var t0 time.Time
	if p.Metrics != nil {
		t0 = time.Now()
	}
	vs, fs, err := f.check(p, ctx, tree)
	if p.Metrics != nil {
		p.Metrics.observeFamily(f.name, familyTier(fs), time.Since(t0).Seconds())
	}
	st.addFamily(f.name, fs)
	if fspan != nil {
		fspan.SetInt("violations", uint64(len(vs)))
		if fs.SolverCalls > 0 {
			fspan.SetInt("solver_calls", uint64(fs.SolverCalls))
			fspan.SetInt("conflicts", fs.Conflicts)
		}
		if fs.Pairs > 0 || fs.PairsPruned > 0 {
			fspan.SetInt("pairs", uint64(fs.Pairs))
			fspan.SetInt("pairs_pruned", uint64(fs.PairsPruned))
		}
	}
	return vs, err
}

// isLimitCause reports whether a delta-application error stems from
// cancellation or a step cap rather than a structural problem.
func isLimitCause(err error) bool {
	var sl *delta.StepLimitError
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &sl)
}
