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
// fan-out: a worker runs one tree's checker families
// (constraints.Families) one after another. Every worker
// builds its own checkers and writes into a pre-sized report slot, so
// the Report is byte-identical to a serial run regardless of
// scheduling. An optional cache (internal/checkcache) keeps each
// product's record — trace, DTS, violations and artifact facts — under
// what derives it, so a product derived before under the same front
// end, schema set and knobs is neither derived nor checked again.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// Identity names the front end — Core, Deltas and Model — in the
	// cache key: pipelines that share a Cache and an Identity must have
	// been built from the same inputs. The service passes the digest of
	// every input its front end parses. Required when Cache is set.
	Identity string
	// Metrics, when non-nil, receives each run's aggregate solver and
	// cache counters (see PipelineMetrics). Safe to share across
	// pipelines; the server shares one instance across requests.
	Metrics *PipelineMetrics
	// Cache, when non-nil, keeps each product's record — its trace,
	// DTS, violations and artifact facts — under what derives it:
	// Identity, the completed configuration, the schema-set fingerprint
	// and the verdict-changing knobs (solver budget, delta step cap,
	// mode). A product derived before — by another VM, the platform
	// union, or an earlier run — is served without being derived,
	// printed or checked again. A lifted run's findings are kept the
	// same way, without the configuration.
	Cache *checkcache.Cache
}

// VMResult is the outcome for one VM. Tree shares every node its deltas
// do not edit with Pipeline.Core, so it is read-only: Clone it to edit.
// Tree is nil when the product came from the Cache, which keeps no
// trees. Trace is shared with the Cache, so it is read-only too.
type VMResult struct {
	Name       string
	Config     featmodel.Configuration
	Trace      []string // applied delta modules, in order
	Tree       *dts.Tree
	DTS        string
	Violations []constraints.Violation

	facts *baogen.Facts // the record's artifact facts, zero unless the product passed
}

// PlatformResult is the outcome for the platform (union) product. Tree
// and Trace are read-only, and Tree is nil on a cache hit, as in
// VMResult.
type PlatformResult struct {
	Config     featmodel.Configuration
	Trace      []string
	Tree       *dts.Tree
	DTS        string
	Violations []constraints.Violation

	facts *baogen.Facts
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
	case p.Cache != nil && p.Identity == "":
		return errors.New("core: a Cache needs the front end's Identity")
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
	limits Limits
	// keyPrefix digests what every cache key of the run shares: the
	// Identity, the schema-set fingerprint and the verdict-changing
	// knobs. Zero when Cache is nil.
	keyPrefix checkcache.Digest

	mu    sync.Mutex
	stats RunStats
}

// newRunState starts a run's shared state under limits.
func (p *Pipeline) newRunState(limits Limits) *runState {
	st := &runState{limits: limits}
	if p.Cache != nil {
		k := checkcache.NewHasher()
		k.Part(p.Identity)
		k.Part(p.Schemas.Fingerprint())
		// Every deterministic knob that can change a record. The step
		// cap is one: a hit is not derived again, so a product derived
		// under a higher cap must not answer a lower one.
		k.Part(fmt.Sprintf("conflicts=%d;learntlits=%d;deltaops=%d;mode=%s",
			limits.Solver.MaxConflicts, limits.Solver.MaxLearntLits, limits.MaxDeltaOps, p.Mode))
		st.keyPrefix = k.Digest()
	}
	return st
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
	st := p.newRunState(limits)
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
	// artifact facts, but skip their per-tree family checks.
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
			var span *obs.Span
			if root != nil {
				span = root.StartChild("vm:" + p.vmName(i))
			}
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
	// Every product passed, so each record holds its artifact facts.
	genSpan := root.StartChild("baogen")
	defer genSpan.End()
	if err := report.Platform.facts.PlatformErr; err != nil {
		return nil, err
	}
	platform := report.Platform.facts.Platform
	report.PlatformC = platform.RenderPlatformC()
	report.QEMUArgs = baogen.QEMUArgs(platform, "aarch64")
	report.JailhouseRootC = baogen.RenderJailhouseRootC(platform)

	vms := make([]*baogen.VM, len(report.VMs))
	for i, vm := range report.VMs {
		bvm, err := vm.facts.NamedVM(vm.Name)
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

// vmName resolves VM i's display name: VMNames[i], or "vm" and i+1,
// which for the first VMs comes from defaultVMNames.
func (p *Pipeline) vmName(i int) string {
	if len(p.VMNames) > 0 {
		return p.VMNames[i]
	}
	if i < len(defaultVMNames) {
		return defaultVMNames[i]
	}
	return "vm" + strconv.Itoa(i+1)
}

// defaultVMNames are the default names of the first 16 VMs, built once,
// so naming them allocates nothing per run.
var defaultVMNames = func() (names [16]string) {
	for i := range names {
		names[i] = "vm" + strconv.Itoa(i+1)
	}
	return names
}()

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

// deriveAndCheckVM fills VM i's result slot with its product's record.
// Errors come back in the same shapes as a serial run: limit causes
// wrapped in *LimitError, structural delta failures as plain errors
// naming the VM.
func (p *Pipeline) deriveAndCheckVM(ctx context.Context, st *runState, i int, out *VMResult, span *obs.Span) error {
	span.Begin() // pre-created for deterministic order; work starts here
	defer span.End()
	name := p.vmName(i)
	out.Name = name
	out.Config = p.VMConfigs[i]
	rec, tree, err := p.product(ctx, st, p.VMConfigs[i], span)
	if err != nil {
		return st.productError("vm:"+name, "VM "+name, err)
	}
	out.Tree, out.Trace, out.DTS, out.facts = tree, rec.trace, rec.dts, &rec.facts
	out.Violations = p.violationsOf(rec)
	return nil
}

// deriveAndCheckPlatform fills the platform slot with the union
// product's record.
func (p *Pipeline) deriveAndCheckPlatform(ctx context.Context, st *runState, union featmodel.Configuration, out *PlatformResult, span *obs.Span) error {
	span.Begin()
	defer span.End()
	rec, tree, err := p.product(ctx, st, union, span)
	if err != nil {
		return st.productError("platform", "platform", err)
	}
	out.Config = union
	out.Tree, out.Trace, out.DTS, out.facts = tree, rec.trace, rec.dts, &rec.facts
	out.Violations = p.violationsOf(rec)
	return nil
}

// productRecord is what the check cache keeps for one product: all a
// run reads from it once derived, except the tree. It is shared by
// every run that hits it, so nothing may edit it.
type productRecord struct {
	trace      []string
	dts        string
	violations []constraints.Violation
	facts      baogen.Facts // zero unless violations is empty
}

// product returns the record of the product cfg derives, from the
// cache when a product with the same key was derived before, and the
// product's tree when this call derived it (nil on a hit).
func (p *Pipeline) product(ctx context.Context, st *runState, cfg featmodel.Configuration, span *obs.Span) (*productRecord, *dts.Tree, error) {
	check := span.StartChild("check")
	defer check.End()
	var tree *dts.Tree
	derive := func() (rec *productRecord, err error) {
		rec, tree, err = p.deriveProduct(ctx, st, cfg, check)
		return rec, err
	}
	if p.Cache == nil {
		rec, err := derive()
		return rec, tree, err
	}
	rec, hit, err := checkcache.Do(p.Cache, ctx, st.productKey(cfg), derive)
	if hit {
		check.SetAttr("cache", "hit")
	} else {
		check.SetAttr("cache", "miss")
	}
	st.addCache(hit)
	return rec, tree, err
}

// productKey digests what derives the product of cfg: the run's key
// prefix and the selected features in sorted order, the completed
// configuration as Config.Sorted() lists it. It allocates nothing for
// configurations of up to 64 features.
func (st *runState) productKey(cfg featmodel.Configuration) checkcache.Digest {
	var names [64]string
	selected := names[:0]
	for name, on := range cfg {
		if on {
			selected = append(selected, name)
		}
	}
	slices.Sort(selected)
	var buf [1024]byte
	b := checkcache.AppendPart(append(buf[:0], st.keyPrefix[:]...), "product")
	for _, name := range selected {
		b = checkcache.AppendPart(b, name)
	}
	return checkcache.Sum(b)
}

// deriveProduct derives the product of cfg, prints it, runs the
// checker families over it and, if it passes, extracts its artifact
// facts. A delta application failure comes back as a deriveError.
func (p *Pipeline) deriveProduct(ctx context.Context, st *runState, cfg featmodel.Configuration, span *obs.Span) (*productRecord, *dts.Tree, error) {
	derive := span.StartChild("derive")
	tree, trace, err := p.Deltas.ApplyContext(ctx, p.Core, cfg, st.limits.MaxDeltaOps)
	derive.SetInt("deltas", uint64(len(trace)))
	derive.End()
	if err != nil {
		return nil, nil, deriveError{err}
	}
	rec := &productRecord{trace: trace, dts: tree.Print()}
	facts := &constraints.TreeFacts{Tree: tree}
	// In lifted mode the session already discharged every family for
	// the whole product line, which includes this product.
	if p.Mode != ModeLifted {
		if rec.violations, err = p.checkTree(ctx, st, facts, span); err != nil {
			return nil, nil, err
		}
	}
	if len(rec.violations) == 0 {
		// The semantic family's region walk, or the first one in lifted
		// mode.
		regions, rerr := facts.Regions()
		rec.facts = baogen.FactsFromRegions(tree, regions, rerr)
	}
	return rec, tree, nil
}

// deriveError marks a delta application failure, which a product's
// phase reports differently from a stop inside its checks.
type deriveError struct{ err error }

func (e deriveError) Error() string { return e.err.Error() }
func (e deriveError) Unwrap() error { return e.err }

// productError shapes a product's failure as a serial run reports it:
// a structural delta failure as a plain error naming subject, anything
// else (cancellation, a step cap, a stop inside the checks) as a
// *LimitError of phase.
func (st *runState) productError(phase, subject string, err error) error {
	var de deriveError
	if errors.As(err, &de) {
		if !isLimitCause(de.err) {
			return fmt.Errorf("core: %s: %w", subject, de.err)
		}
		err = de.err
	}
	return st.limitError(phase, err)
}

// violationsOf returns the record's violations for a report: a copy
// when the cache shares the record, so appending to them never reaches
// the cache. A copy keeps nil as nil.
func (p *Pipeline) violationsOf(rec *productRecord) []constraints.Violation {
	if p.Cache == nil || rec.violations == nil {
		return rec.violations
	}
	return append(make([]constraints.Violation, 0, len(rec.violations)), rec.violations...)
}

// checkTree runs the per-tree families (constraints.Families) over
// one tree's facts, one after another on the calling goroutine, and
// merges their violations in family order. It stops at the first
// family that fails.
func (p *Pipeline) checkTree(ctx context.Context, st *runState, facts *constraints.TreeFacts, span *obs.Span) ([]constraints.Violation, error) {
	var out []constraints.Violation
	for i := range constraints.Families {
		vs, err := p.runFamily(ctx, st, &constraints.Families[i], facts, span)
		out = append(out, vs...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// runFamily executes one family under a child span of span, records its
// stats and annotates the span with the family's solver work.
func (p *Pipeline) runFamily(ctx context.Context, st *runState, f *constraints.Family, facts *constraints.TreeFacts, span *obs.Span) ([]constraints.Violation, error) {
	var fspan *obs.Span
	if span != nil {
		fspan = span.StartChild("family:" + f.Name)
		defer fspan.End()
	}
	var t0 time.Time
	if p.Metrics != nil {
		t0 = time.Now()
	}
	vs, sst, err := f.Check(ctx, p.Schemas, facts)
	fs := familyStatsFrom(sst)
	if p.Metrics != nil {
		p.Metrics.observeFamily(f.Name, familyTier(fs), time.Since(t0).Seconds())
	}
	st.addFamily(f.Name, fs)
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
