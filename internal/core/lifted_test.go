// Pipeline-level tests for family-based lifted checking (ModeLifted):
// mode parsing, verdict and artifact equivalence with the enumerative
// mode, witness decoding on a violating product line, cache
// round-tripping of lifted findings, and the lifted metric families.
package core_test

import (
	"context"
	"flag"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in      string
		want    core.Mode
		wantErr bool
	}{
		{"", core.ModeEnumerate, false},
		{"enumerate", core.ModeEnumerate, false},
		{"lifted", core.ModeLifted, false},
		{"family", 0, true},
		{"LIFTED", 0, true},
	}
	for _, c := range cases {
		got, err := core.ParseMode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseMode(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}

	// The flag.Value contract: a bad spelling fails at parse time with
	// the list of valid ones, before any input file is opened.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var mode core.Mode
	fs.Var(&mode, "mode", "")
	if err := fs.Parse([]string{"-mode=banana"}); err == nil {
		t.Error("flag parse accepted -mode=banana")
	} else if !strings.Contains(err.Error(), "enumerate or lifted") {
		t.Errorf("flag error does not list valid modes: %v", err)
	}
	if err := fs.Parse([]string{"-mode=lifted"}); err != nil {
		t.Fatal(err)
	}
	if mode != core.ModeLifted {
		t.Errorf("flag parse set mode = %v, want lifted", mode)
	}
}

// TestLiftedModeRunningExample runs the clean running example in both
// modes: identical OK verdicts, identical generated artifacts, and the
// lifted run's stats record its 12 products and no solver session. The
// same line with three spare optional features (96 products) records
// exactly one solver session with real query work.
func TestLiftedModeRunningExample(t *testing.T) {
	enum := examplePipeline(t, nil)
	enumReport, err := enum.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	lifted := examplePipeline(t, nil)
	lifted.Mode = core.ModeLifted
	liftedReport, err := lifted.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	if !liftedReport.OK() {
		t.Fatalf("lifted run of the clean running example not OK: %+v", liftedReport.Lifted)
	}
	if len(liftedReport.Lifted) != 0 {
		t.Errorf("clean line produced lifted findings: %v", liftedReport.Lifted)
	}
	// Products are still derived, so the generated artifacts are
	// byte-identical across modes.
	if liftedReport.Artifacts.PlatformC() != enumReport.Artifacts.PlatformC() {
		t.Error("platform C artifact differs between modes")
	}
	if liftedReport.Artifacts.ConfigC() != enumReport.Artifacts.ConfigC() {
		t.Error("config C artifact differs between modes")
	}
	if len(liftedReport.VMs) != len(enumReport.VMs) {
		t.Fatalf("VM count differs: lifted %d, enumerative %d",
			len(liftedReport.VMs), len(enumReport.VMs))
	}

	// The running example's 12 products are product sets: no session.
	ls := liftedReport.Stats.Lifted
	if ls == nil {
		t.Fatal("lifted run has nil Stats.Lifted")
	}
	if ls.Products != runningexample.ProductCount || ls.Queries != 0 || ls.Sessions != 0 {
		t.Errorf("lifted run over %d products asked %d queries in %d sessions, want %d, 0, 0",
			ls.Products, ls.Queries, ls.Sessions, runningexample.ProductCount)
	}

	// The same line past 64 products checks in one solver session.
	spareReport, err := spareLiftedPipeline(t).RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !spareReport.OK() {
		t.Fatalf("lifted run of the 96-product line not OK: %+v", spareReport.Lifted)
	}
	ls = spareReport.Stats.Lifted
	if ls == nil {
		t.Fatal("lifted run of the 96-product line has nil Stats.Lifted")
	}
	if ls.Products != 0 {
		t.Errorf("96-product line answered over %d product sets, want a session", ls.Products)
	}
	if ls.Queries == 0 {
		t.Error("lifted run recorded no reachability queries")
	}
	if ls.Sessions != 1 {
		t.Errorf("lifted run recorded %d solver sessions, want 1", ls.Sessions)
	}
	fam, ok := spareReport.Stats.Families["lifted"]
	if !ok {
		t.Fatal("no \"lifted\" family in Stats.Families")
	}
	if fam.SolverCalls != ls.Queries {
		t.Errorf("family SolverCalls = %d, want %d (Queries)", fam.SolverCalls, ls.Queries)
	}
	if enumReport.Stats.Lifted != nil {
		t.Error("enumerative run has non-nil Stats.Lifted")
	}
	// No per-product family work ran: the enumerative per-tree families
	// must be absent from the lifted run's stats.
	if _, ok := liftedReport.Stats.Families["syntactic"]; ok {
		t.Error("lifted run still performed per-product syntactic checks")
	}
}

// collisionPipeline is the running example with delta d4 dropped (the
// E6 truncation corpus): its products exhibit real memory collisions,
// so a lifted run must report findings with decodable witnesses.
func collisionPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p := examplePipeline(t, nil)
	var kept []*delta.Delta
	for _, d := range p.Deltas.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	smaller, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = smaller
	p.Mode = core.ModeLifted
	p.Identity = "collision corpus"
	return p
}

// TestLiftedModeFindsViolationsWithWitnesses runs the collision corpus
// lifted and requires findings whose decoded witness configurations
// are valid products of the feature model.
func TestLiftedModeFindsViolationsWithWitnesses(t *testing.T) {
	p := collisionPipeline(t)
	report, err := p.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("collision corpus reported OK in lifted mode")
	}
	if len(report.Lifted) == 0 {
		t.Fatal("collision corpus produced no lifted findings")
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.Lifted {
		if f.Family == "" {
			t.Errorf("finding with empty family: %+v", f)
		}
		if len(f.Config.Sorted()) == 0 {
			t.Errorf("finding %s has empty witness configuration", f)
		}
		if model.Conflict(f.Config) != nil {
			t.Errorf("finding %s: witness %v is not a valid product",
				f, f.Config.Sorted())
		}
	}
	// The lifted findings flow into AllViolations alongside allocation.
	all := report.AllViolations()
	if len(all) < len(report.Lifted) {
		t.Errorf("AllViolations returned %d entries, want at least %d",
			len(all), len(report.Lifted))
	}
}

// TestLiftedModeCacheRoundTrip runs the collision corpus twice against
// one cache: the second run must hit and reproduce the findings, with
// their witnesses, from the stored findings.
func TestLiftedModeCacheRoundTrip(t *testing.T) {
	cache := checkcache.New(16)

	first := collisionPipeline(t)
	first.Cache = cache
	firstReport, err := first.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if firstReport.Stats.CacheMisses == 0 {
		t.Fatal("first lifted run recorded no cache miss")
	}

	second := collisionPipeline(t)
	second.Cache = cache
	secondReport, err := second.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if secondReport.Stats.CacheHits == 0 {
		t.Fatal("second lifted run did not hit the cache")
	}
	// Cache hits contribute no family work, so the hit run has no
	// lifted run stats — but the findings round-trip losslessly.
	if secondReport.Stats.Lifted != nil {
		t.Error("cache-hit lifted run has non-nil Stats.Lifted")
	}
	if !reflect.DeepEqual(firstReport.Lifted, secondReport.Lifted) {
		t.Errorf("findings differ across the cache:\nfirst:  %v\nsecond: %v",
			firstReport.Lifted, secondReport.Lifted)
	}

	// The mode is folded into the cache key: an enumerative run over
	// the same inputs must not be served the lifted entry.
	enum := collisionPipeline(t)
	enum.Mode = core.ModeEnumerate
	enum.Cache = cache
	enumReport, err := enum.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if enumReport.Stats.CacheMisses == 0 {
		t.Error("enumerative run over lifted-cached inputs recorded no miss")
	}
	if len(enumReport.Lifted) != 0 {
		t.Error("enumerative run decoded lifted findings from the cache")
	}
}

// TestLiftedCacheKeyFoldsInModel runs the collision line under two
// feature models that share the core, the deltas and every knob: the
// running example's model, and the same model with the constraint
// !uart0, which makes the uart0 findings unreachable. Each model's
// findings through a cache warmed by the other model must equal its
// uncached findings, in both orders, or a shared cache would hand out
// witnesses that are not valid configurations (or a false PASS).
func TestLiftedCacheKeyFoldsInModel(t *testing.T) {
	base, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	noUART0, err := featmodel.ParseModel("no-uart0.fm", base.Format()+"constraint !uart0\n")
	if err != nil {
		t.Fatal(err)
	}
	run := func(model *featmodel.Model, cache *checkcache.Cache) []constraints.LiftedFinding {
		t.Helper()
		p := collisionPipeline(t)
		p.Model = model
		p.Identity += "\n" + model.Format() // as the service's digest covers the model text
		p.Cache = cache
		report, err := p.RunContext(context.Background(), core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return report.Lifted
	}
	uncachedBase, uncachedNoUART0 := run(base, nil), run(noUART0, nil)
	if reflect.DeepEqual(uncachedBase, uncachedNoUART0) {
		t.Fatal("the two models give the same lifted findings; the test cannot tell their keys apart")
	}
	for _, order := range [][2]*featmodel.Model{{base, noUART0}, {noUART0, base}} {
		cache := checkcache.New(16)
		run(order[0], cache)
		want := uncachedNoUART0
		if order[1] == base {
			want = uncachedBase
		}
		if got := run(order[1], cache); !reflect.DeepEqual(got, want) {
			t.Errorf("after a run under the other model, the cache served %d findings, want the uncached %d:\n got: %v\nwant: %v",
				len(got), len(want), got, want)
		}
	}
}

// spareLiftedPipeline is the running example in lifted mode with three
// spare optional features in its model: 96 valid products, past the 64
// a lifted check holds as product sets, so it solves in a session.
func spareLiftedPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p := examplePipeline(t, nil)
	var err error
	if p.Model, err = runningexample.SpareModel(3); err != nil {
		t.Fatal(err)
	}
	p.Mode = core.ModeLifted
	return p
}

// scrapeSample returns the value of the sample line that starts with
// name (metric name plus labels) in a Prometheus scrape, or "" if
// there is none.
func scrapeSample(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// TestLiftedMetrics folds a lifted run that solves in a session into a
// registry and requires the three llhsc_lifted_* counter families plus
// the session-reuse gauge in the scrape. Two running-example runs over
// product sets follow, each on a fresh model: one that a one-conflict
// cap stops while it enumerates the model's products, and one that
// finishes. Neither may count a session, and the finished
// one's enumeration must reach the lifted solver counters, although
// its run stats leave the enumeration out.
func TestLiftedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := core.NewPipelineMetrics(reg)

	p := spareLiftedPipeline(t)
	p.Metrics = metrics
	report, err := p.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Stats.Lifted == nil {
		t.Fatal("nil Stats.Lifted")
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	for _, family := range []string{
		"llhsc_lifted_queries_total",
		"llhsc_lifted_configs_pruned_total",
		"llhsc_lifted_sessions_total",
		"llhsc_lifted_session_reuse",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	wantQueries := report.Stats.Lifted.Queries
	if wantQueries == 0 {
		t.Fatal("the lifted run asked no queries; the comparison is vacuous")
	}
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "llhsc_lifted_queries_total ") {
			found = true
			got := strings.TrimSpace(strings.TrimPrefix(line, "llhsc_lifted_queries_total "))
			if want := strconv.Itoa(wantQueries); got != want {
				t.Errorf("llhsc_lifted_queries_total = %s, want %s", got, want)
			}
		}
	}
	if !found {
		t.Error("no llhsc_lifted_queries_total sample in scrape")
	}

	const props = `llhsc_sat_propagations_total{family="lifted"}`
	before := scrapeSample(text, props)
	stopped := examplePipeline(t, nil)
	stopped.Mode, stopped.Metrics = core.ModeLifted, metrics
	if _, err := stopped.RunContext(context.Background(), core.Limits{
		Solver: sat.Budget{MaxConflicts: 1},
	}); err == nil {
		t.Fatal("a run under a one-conflict cap finished")
	}
	sets := examplePipeline(t, nil)
	sets.Mode, sets.Metrics = core.ModeLifted, metrics
	report, err = sets.RunContext(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ls := report.Stats.Lifted; ls.Sessions != 0 || report.Stats.Families["lifted"].Propagations != 0 {
		t.Errorf("product-set run: %d sessions, %d propagations in its stats; want 0 and 0",
			ls.Sessions, report.Stats.Families["lifted"].Propagations)
	}
	b.Reset()
	reg.WritePrometheus(&b)
	text = b.String()
	if got := scrapeSample(text, "llhsc_lifted_sessions_total"); got != "1" {
		t.Errorf("llhsc_lifted_sessions_total = %s after one session run, want 1", got)
	}
	n0, _ := strconv.ParseUint(before, 10, 64) // no sample yet reads 0
	after := scrapeSample(text, props)
	if n1, err := strconv.ParseUint(after, 10, 64); err != nil || n1 <= n0 {
		t.Errorf("%s = %q, then %q after a fresh model's enumeration; want it to grow", props, before, after)
	}
}
