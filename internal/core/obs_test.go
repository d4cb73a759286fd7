// Observability tests for the pipeline: span-tree determinism across
// schedules, stats plumbing into the report, and registry safety under
// the parallel fan-out with a concurrent /metrics scrape.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llhsc/internal/checkcache"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/schema"
)

// tracedRun executes the pipeline with a root span installed and
// returns the span plus the report.
func tracedRun(t *testing.T, p *core.Pipeline, parallelism int) (*obs.Span, *core.Report) {
	t.Helper()
	root := obs.NewSpan("run")
	ctx := obs.ContextWithSpan(context.Background(), root)
	report, err := p.RunContext(ctx, core.Limits{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	return root, report
}

// TestSpanTreeDeterministicAcrossSchedules runs the running example
// serially and with a large pool (no cache: single-flight would make
// which product computes a shared entry timing-dependent) and requires
// the same set of phase names in both span trees.
func TestSpanTreeDeterministicAcrossSchedules(t *testing.T) {
	serialRoot, _ := tracedRun(t, examplePipeline(t, nil), 1)
	parallelRoot, _ := tracedRun(t, examplePipeline(t, nil), 8)
	serialPhases := serialRoot.PhaseSet()
	parallelPhases := parallelRoot.PhaseSet()
	if !reflect.DeepEqual(serialPhases, parallelPhases) {
		t.Errorf("phase sets differ:\nserial:   %v\nparallel: %v",
			serialPhases, parallelPhases)
	}
	for _, want := range []string{
		"allocation", "vm:vm1", "vm:vm2", "platform", "derive", "check",
		"family:syntactic", "family:semantic", "family:memreserve",
		"family:interrupt", "baogen",
	} {
		found := false
		for _, got := range serialPhases {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("phase %q missing from span tree %v", want, serialPhases)
		}
	}
}

// TestSpanChildOrderDeterministic: the per-product children of the
// root (and the family children of each check span) must appear in
// index order regardless of scheduling, because the parallel fan-out
// pre-creates them before dispatch.
func TestSpanChildOrderDeterministic(t *testing.T) {
	order := func(root *obs.Span) []string {
		var names []string
		var walk func(sn obs.SpanSnapshot)
		walk = func(sn obs.SpanSnapshot) {
			names = append(names, sn.Name)
			for _, c := range sn.Children {
				walk(c)
			}
		}
		walk(root.Snapshot())
		return names
	}
	serialRoot, _ := tracedRun(t, examplePipeline(t, nil), 1)
	parallelRoot, _ := tracedRun(t, examplePipeline(t, nil), 8)
	if s, p := order(serialRoot), order(parallelRoot); !reflect.DeepEqual(s, p) {
		t.Errorf("pre-order walk differs:\nserial:   %v\nparallel: %v", s, p)
	}
}

// TestReportStats: every run carries the per-family work summary; the
// semantic family reports its pruning on the running example, and
// allocation, decided by ground evaluation, reports one check and no
// solver work.
func TestReportStats(t *testing.T) {
	_, report := tracedRun(t, examplePipeline(t, nil), 1)
	for _, fam := range []string{"allocation", "syntactic", "semantic", "memreserve", "interrupt"} {
		if _, ok := report.Stats.Families[fam]; !ok {
			t.Errorf("Stats.Families missing %q: %+v", fam, report.Stats)
		}
	}
	// On the running example the sweep prunes every candidate pair, so
	// the semantic family's measurable work is the pruning itself.
	sem := report.Stats.Families["semantic"]
	if sem.PairsPruned == 0 {
		t.Errorf("semantic family reports no pruned pairs: %+v", sem)
	}
	if alloc := report.Stats.Families["allocation"]; alloc != (core.FamilyStats{Checks: 1}) {
		t.Errorf("allocation family = %+v, want one check and no solver work", alloc)
	}
	// 3 trees checked by each per-tree family (vm1, vm2, platform).
	if got := report.Stats.Families["syntactic"].Checks; got != 3 {
		t.Errorf("syntactic Checks = %d, want 3", got)
	}
	if report.Stats.CacheHits != 0 || report.Stats.CacheMisses != 0 {
		t.Errorf("cache counters nonzero without a cache: %+v", report.Stats)
	}
}

// TestReportStatsCacheCounters: with a cache installed the run's stats
// record each lookup, and cache hits contribute no duplicate family
// work.
func TestReportStatsCacheCounters(t *testing.T) {
	p := examplePipeline(t, nil)
	p.Cache, p.Identity = checkcache.New(16), "running example"
	_, report := tracedRun(t, p, 1)
	if got := report.Stats.CacheHits + report.Stats.CacheMisses; got != 3 {
		t.Errorf("cache lookups = %d, want 3 (one per product)", got)
	}
	if report.Stats.CacheMisses == 0 {
		t.Error("first run must miss at least once")
	}
	checked := report.Stats.Families["syntactic"].Checks
	if checked != report.Stats.CacheMisses {
		t.Errorf("syntactic Checks = %d, want one per cache miss (%d)",
			checked, report.Stats.CacheMisses)
	}
}

// TestCheckSecondsTierLabels pins the llhsc_check_seconds tier labels
// of the memreserve and interrupt families: word arithmetic decides
// both, so a tree with reserves and interrupt claims observes
// tier="word", the running example (no reserves) observes
// memreserve tier="none", and neither family ever observes tier="sat".
func TestCheckSecondsTierLabels(t *testing.T) {
	tree, err := dts.Parse("tiers.dts", `/dts-v1/;
/memreserve/ 0x40000000 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 { device_type = "memory"; reg = <0x40000000 0x100000>; };
	uart@1000 { compatible = "ns16550a"; reg = <0x1000 0x100>; interrupts = <5>; };
	uart@2000 { compatible = "ns16550a"; reg = <0x2000 0x100>; interrupts = <6>; };
};
`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := featmodel.NewModel(featmodel.NewFeature("root"))
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := delta.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	scrape := func(p *core.Pipeline) string {
		t.Helper()
		reg := obs.NewRegistry()
		p.Metrics = core.NewPipelineMetrics(reg)
		// Only a stop inside the checks matters: the one-node line has no
		// CPUs, so its artifact generation fails after every family has
		// been observed.
		var le *core.LimitError
		if _, err := p.RunContext(context.Background(), core.Limits{Parallelism: 1}); errors.As(err, &le) {
			t.Fatal(err)
		}
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String()
	}
	reserves := scrape(&core.Pipeline{
		FrontEnd: &core.FrontEnd{Core: tree, Deltas: deltas, Model: model}, Schemas: schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{featmodel.ConfigOf("root")},
	})
	example := scrape(examplePipeline(t, nil))
	for _, c := range []struct {
		text, series string
		want         bool
	}{
		{reserves, `llhsc_check_seconds_count{family="memreserve",tier="word"}`, true},
		{reserves, `llhsc_check_seconds_count{family="interrupt",tier="word"}`, true},
		{example, `llhsc_check_seconds_count{family="memreserve",tier="none"}`, true},
		{reserves + example, `family="memreserve",tier="sat"`, false},
		{reserves + example, `family="interrupt",tier="sat"`, false},
	} {
		if got := strings.Contains(c.text, c.series); got != c.want {
			t.Errorf("scrape contains %s = %v, want %v", c.series, got, c.want)
		}
	}
}

// TestPipelineMetricsUnderRaceWithScrape hammers one shared registry
// from concurrent pipeline runs (enumerative runs with the per-tree
// fan-out, alternating with lifted runs of the running example past 64
// products, which solve in a session) while scraping /metrics text
// in parallel; run under -race this is the tentpole's registry-safety
// check. It then asserts the scraped lifted SAT propagations match the
// sum of the per-run reports.
func TestPipelineMetricsUnderRaceWithScrape(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := core.NewPipelineMetrics(reg)

	const runs = 4
	reports := make([]*core.Report, runs)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				reg.WritePrometheus(&b)
			}
		}
	}()
	var runWG sync.WaitGroup
	for i := 0; i < runs; i++ {
		runWG.Add(1)
		go func(i int) {
			defer runWG.Done()
			p := examplePipeline(t, nil)
			p.Metrics = metrics
			if i%2 == 1 {
				p = spareLiftedPipeline(t)
				p.Metrics = metrics
			}
			report, err := p.RunContext(context.Background(), core.Limits{Parallelism: 4})
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = report
		}(i)
	}
	runWG.Wait()
	close(stop)
	wg.Wait()

	var wantProps uint64
	for _, r := range reports {
		if r == nil {
			t.Fatal("missing report")
		}
		wantProps += r.Stats.Families["lifted"].Propagations
	}
	if wantProps == 0 {
		t.Fatal("lifted runs report no SAT propagations; the sum check is vacuous")
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	for _, family := range []string{
		"llhsc_sat_conflicts_total", "llhsc_constraints_solver_calls_total",
		"llhsc_constraints_pairs_pruned_total", "llhsc_core_runs_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	want := `llhsc_sat_propagations_total{family="lifted"}`
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, want) {
			found = true
			var got float64
			if _, err := fmt.Sscan(strings.TrimSpace(strings.TrimPrefix(line, want)), &got); err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			if uint64(got) != wantProps {
				t.Errorf("registry lifted propagations = %d, want %d (sum of reports)", uint64(got), wantProps)
			}
		}
	}
	if !found {
		t.Errorf("sample %s missing from scrape", want)
	}
}
