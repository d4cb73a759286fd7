// Determinism, cancellation and caching tests for the parallel
// pipeline. External test package so the bench corpus can be imported
// without a cycle.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llhsc/internal/bench"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// examplePipeline builds the paper's running-example pipeline, with an
// optional replacement core tree (for the fault corpus).
func examplePipeline(t *testing.T, coreTree *dts.Tree) *core.Pipeline {
	t.Helper()
	if coreTree == nil {
		var err error
		coreTree, err = runningexample.Tree()
		if err != nil {
			t.Fatal(err)
		}
	}
	deltas, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	return &core.Pipeline{
		Core:    coreTree,
		Deltas:  deltas,
		Model:   model,
		Schemas: schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{
			runningexample.VM1Config(), runningexample.VM2Config(),
		},
		VMNames: []string{"vm1", "vm2"},
	}
}

// fingerprint renders every user-visible part of a report into one
// string, so byte-identity across runs is a single comparison.
func fingerprint(r *core.Report) string {
	var b strings.Builder
	dump := func(vs []constraints.Violation) {
		for _, v := range vs {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	b.WriteString("allocation:\n")
	dump(r.Allocation)
	for _, vm := range r.VMs {
		fmt.Fprintf(&b, "vm %s trace=%v\n", vm.Name, vm.Trace)
		b.WriteString(vm.DTS)
		dump(vm.Violations)
	}
	fmt.Fprintf(&b, "platform trace=%v\n", r.Platform.Trace)
	b.WriteString(r.Platform.DTS)
	dump(r.Platform.Violations)
	b.WriteString(r.PlatformC)
	b.WriteString(r.ConfigC)
	b.WriteString(r.JailhouseRootC)
	for _, c := range r.JailhouseCellsC {
		b.WriteString(c)
	}
	fmt.Fprintf(&b, "qemu=%v\n", r.QEMUArgs)
	return b.String()
}

// runBoth executes the same pipeline serially and in parallel and
// returns both outcomes.
func runBoth(p *core.Pipeline) (serialFP, parallelFP string, serialErr, parallelErr error) {
	serial, serialErr := p.RunContext(context.Background(), core.Limits{Parallelism: 1})
	parallel, parallelErr := p.RunContext(context.Background(), core.Limits{Parallelism: 8})
	if serialErr == nil {
		serialFP = fingerprint(serial)
	}
	if parallelErr == nil {
		parallelFP = fingerprint(parallel)
	}
	return
}

// TestParallelReportMatchesSerialRunningExample asserts the tentpole's
// determinism guarantee: the parallel Report — violations, rendered
// DTS, generated C — is byte-identical to the serial one.
func TestParallelReportMatchesSerialRunningExample(t *testing.T) {
	p := examplePipeline(t, nil)
	serialFP, parallelFP, serialErr, parallelErr := runBoth(p)
	if serialErr != nil || parallelErr != nil {
		t.Fatalf("serial err=%v parallel err=%v", serialErr, parallelErr)
	}
	if serialFP != parallelFP {
		t.Errorf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialFP, parallelFP)
	}
}

// TestParallelReportMatchesSerialFaultCorpus repeats the determinism
// check over every parsable fault of the E10 corpus: faulty inputs
// produce violations (or structural errors), and those must also be
// independent of scheduling.
func TestParallelReportMatchesSerialFaultCorpus(t *testing.T) {
	for _, f := range bench.AllFaults() {
		if f == bench.FaultPathologicalCNF {
			continue // no DTS form
		}
		t.Run(f.String(), func(t *testing.T) {
			src, inc := bench.FaultSource(f)
			tree, err := dts.Parse("faulty.dts", src, dts.WithIncluder(inc))
			if err != nil {
				t.Skipf("fault does not parse (%v); nothing to check", err)
			}
			p := examplePipeline(t, tree)
			serialFP, parallelFP, serialErr, parallelErr := runBoth(p)
			if (serialErr == nil) != (parallelErr == nil) {
				t.Fatalf("error mismatch: serial=%v parallel=%v", serialErr, parallelErr)
			}
			if serialErr != nil {
				if serialErr.Error() != parallelErr.Error() {
					t.Fatalf("error text mismatch:\nserial:   %v\nparallel: %v",
						serialErr, parallelErr)
				}
				return
			}
			if serialFP != parallelFP {
				t.Errorf("parallel report differs from serial for %v", f)
			}
		})
	}
}

// pollCancelCtx cancels the run on its nth poll, counting calls to Err
// and Done alike. A parallel run hands each product job a child context
// of its own, and a child's Err never consults its parent, so the polls
// that reach this wrapper are the pipeline's own: allocation's check,
// then the fan-out's, as it derives one child per product job.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newPollCancelCtx(parent context.Context, n int64) (*pollCancelCtx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	c := &pollCancelCtx{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c, cancel
}

func (c *pollCancelCtx) poll() {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
}

func (c *pollCancelCtx) Err() error {
	c.poll()
	return c.Context.Err()
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.poll()
	return c.Context.Done()
}

// TestParallelCancellationStopsWorkers cancels a parallel run from
// inside and requires a prompt *core.LimitError wrapping
// context.Canceled, reported for a product. The first poll is
// allocation's and passes; the second comes as the fan-out derives the
// first product job's context and cancels, so allocation has finished
// and every product job starts canceled and must stop at its first
// poll. A region planted over uart0 gives every tree's semantic family
// a pair to decide, so a job that failed to stop would do real work.
func TestParallelCancellationStopsWorkers(t *testing.T) {
	pipeline, err := bench.HeavyProductLine(8)
	if err != nil {
		t.Fatal(err)
	}
	shadow := pipeline.Core.Root.EnsureChild("shadow@10000000")
	shadow.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(0x10000000, 0x100)})
	ctx, cancel := newPollCancelCtx(context.Background(), 2)
	defer cancel()
	start := time.Now()
	_, err = pipeline.RunContext(ctx, core.Limits{Parallelism: 4})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	var le *core.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *core.LimitError", err, err)
	}
	if le.Phase == "" {
		t.Error("LimitError has no phase")
	}
	if !strings.HasPrefix(le.Phase, "vm:") && le.Phase != "platform" {
		t.Errorf("phase = %q, want a vm: or platform phase", le.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, does not wrap context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; workers did not stop promptly", elapsed)
	}
}

// TestCacheHitWithinSingleRun uses a single-VM line, where the platform
// union tree equals the VM tree: the second check must be served from
// the cache (or join the first in flight), not solved again.
func TestCacheHitWithinSingleRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pipeline, err := bench.SyntheticProductLine(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			cache := checkcache.New(16)
			pipeline.Cache = cache
			report, err := pipeline.RunContext(context.Background(),
				core.Limits{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Fatalf("unexpected violations: %v", report.AllViolations())
			}
			st := cache.Stats()
			if st.Misses != 1 || st.Hits != 1 {
				t.Errorf("stats = %+v, want exactly 1 miss (vm tree) and 1 hit (platform tree)", st)
			}
			if report.Platform.DTS != report.VMs[0].DTS {
				t.Error("single-VM line: platform and VM DTS should coincide")
			}
		})
	}
}

// blamePipeline builds a single-VM product line whose derived tree is
// independent of deltaName: the named delta adds a uart node that is
// missing its required reg property, so every run yields the same
// canonical DTS text but a violation blaming deltaName.
func blamePipeline(t *testing.T, deltaName string) *core.Pipeline {
	t.Helper()
	p, err := bench.SyntheticProductLine(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Identity += ", " + deltaName // the delta text names the delta
	faulty := &delta.Delta{
		Name: deltaName,
		Ops: []delta.Operation{{
			Kind:   delta.OpAdds,
			Target: "/",
			Fragment: &dts.Node{Name: "/", Children: []*dts.Node{{
				Name: "uart@20000000",
				Properties: []*dts.Property{{
					Name: "compatible", Value: dts.StringValueOf("ns16550a"),
				}},
			}}},
		}},
	}
	set, err := delta.NewSet(append(append([]*delta.Delta{}, p.Deltas.Deltas...), faulty))
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = set
	return p
}

// TestCacheDoesNotLeakBlameAcrossDeltaNames shares one cache between
// two requests whose products print byte-identically but derive from
// differently-named delta modules. The second request must report
// violations blaming its own deltas — a cache keyed on canonical text
// alone would replay the first request's blame metadata. Keyed by what
// derives a product, the two differ in their front end's Identity.
func TestCacheDoesNotLeakBlameAcrossDeltaNames(t *testing.T) {
	cache := checkcache.New(16)
	var texts []string
	for _, name := range []string{"add_uart_alpha", "add_uart_beta"} {
		p := blamePipeline(t, name)
		p.Cache = cache
		report, err := p.RunContext(context.Background(), core.Limits{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if report.OK() {
			t.Fatal("expected a violation for the reg-less uart")
		}
		texts = append(texts, report.VMs[0].DTS)
		var blamed []string
		all := append(append([]constraints.Violation{}, report.VMs[0].Violations...),
			report.Platform.Violations...)
		for _, v := range all {
			if v.Origin.Delta != "" {
				blamed = append(blamed, v.Origin.Delta)
			}
		}
		if len(blamed) == 0 {
			t.Fatalf("%s: no violation carries delta blame: %v", name, all)
		}
		for _, d := range blamed {
			if d != name {
				t.Errorf("%s: violation blames delta %q (leaked from a previous request)", name, d)
			}
		}
	}
	if texts[0] != texts[1] {
		t.Fatal("test premise broken: the two products should print identically")
	}
}

// TestCacheDoesNotChangeReport runs the example with and without a
// cache (twice, to exercise warm hits) and demands identical reports.
func TestCacheDoesNotChangeReport(t *testing.T) {
	base := examplePipeline(t, nil)
	plain, err := base.RunContext(context.Background(), core.Limits{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cached := examplePipeline(t, nil)
	cached.Cache, cached.Identity = checkcache.New(16), "running example"
	cold, err := cached.RunContext(context.Background(), core.Limits{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cached.RunContext(context.Background(), core.Limits{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(plain) != fingerprint(cold) {
		t.Error("cold cached report differs from uncached")
	}
	if fingerprint(plain) != fingerprint(warm) {
		t.Error("warm cached report differs from uncached")
	}
	st := cached.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("warm run recorded no hits: %+v", st)
	}
}

// TestRunAllocsRunningExample gates the allocations of one enumerative
// run of the running example on the two-worker product pool, check
// cache off, with the report released as the service releases it. The
// product pool is the run's only fan-out; a per-tree family fan-out
// would add its goroutines, contexts and result slots to every tree.
// Each product walks its regions once, for the semantic and
// memreserve families and its artifact facts alike; a second walk
// would add about 20 allocs per product. Products share the delta
// fragments they take in and VMs are named from a table; cloning the
// fragments and concatenating the names took 760 allocs/run. The bound
// is the measured 555 allocs/run plus 2% headroom.
func TestRunAllocsRunningExample(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops reports at random under the race detector")
	}
	p := examplePipeline(t, nil)
	run := func() {
		report, err := p.RunContext(context.Background(), core.Limits{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		report.Release()
	}
	const bound = 566
	if allocs := testing.AllocsPerRun(50, run); allocs > bound {
		t.Errorf("allocs/run = %.0f, want <= %d", allocs, bound)
	}
}
