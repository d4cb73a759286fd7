package obs

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	h.writeTo(&b, "m", "")
	out := b.String()
	for _, line := range []string{
		`m_bucket{le="0.1"} 1`,
		`m_bucket{le="1"} 3`,
		`m_bucket{le="10"} 4`,
		`m_bucket{le="+Inf"} 5`,
		`m_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("llhsc_test_ops_total", "operations")
	c.Add(3)
	cv := reg.NewCounterVec("llhsc_test_family_total", "per family", "family")
	cv.With("semantic").Add(7)
	cv.With("syntactic").Inc()
	reg.NewGauge("llhsc_test_inflight", "in flight").Set(2)
	reg.Register("llhsc_test_entries", "entries", FuncGauge(func() float64 { return 5 }))
	h := reg.NewHistogramVec("llhsc_test_seconds", "latency", []float64{1}, "endpoint", "code")
	h.With("/check", "2xx").Observe(0.5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP llhsc_test_ops_total operations",
		"# TYPE llhsc_test_ops_total counter",
		"llhsc_test_ops_total 3",
		`llhsc_test_family_total{family="semantic"} 7`,
		`llhsc_test_family_total{family="syntactic"} 1`,
		"# TYPE llhsc_test_inflight gauge",
		"llhsc_test_inflight 2",
		"llhsc_test_entries 5",
		`llhsc_test_seconds_bucket{endpoint="/check",code="2xx",le="1"} 1`,
		`llhsc_test_seconds_count{endpoint="/check",code="2xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families come out sorted by name for stable scrapes.
	if strings.Index(out, "llhsc_test_entries") > strings.Index(out, "llhsc_test_ops_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("llhsc_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("llhsc_dup_total", "x")
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("llhsc_esc_total", "escaping", "path")
	cv.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `{path="a\"b\\c\nd"}`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("StartChild on nil span must return nil")
	}
	c.End()
	c.SetAttr("k", "v")
	c.SetInt("n", 1)
	if c.Duration() != 0 {
		t.Fatal("nil span has duration")
	}
	if got := c.PhaseSet(); len(got) != 0 {
		t.Fatalf("nil span phase set = %v", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("check")
	a := root.StartChild("allocation")
	a.SetInt("conflicts", 3)
	a.End()
	vm := root.StartChild("vm:vm1")
	vm.StartChild("semantic").End()
	vm.End()
	root.End()

	snap := root.Snapshot()
	if snap.Name != "check" || len(snap.Children) != 2 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if snap.Children[0].Name != "allocation" || snap.Children[1].Name != "vm:vm1" {
		t.Fatalf("children out of order: %+v", snap.Children)
	}
	if len(snap.Children[0].Attrs) != 1 || snap.Children[0].Attrs[0].Value != "3" {
		t.Fatalf("attr lost: %+v", snap.Children[0].Attrs)
	}
	phases := root.PhaseSet()
	want := []string{"allocation", "check", "semantic", "vm:vm1"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	var b strings.Builder
	root.WriteTree(&b)
	if !strings.Contains(b.String(), "conflicts=3") {
		t.Errorf("tree rendering missing attr:\n%s", b.String())
	}
}

func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
	root := NewSpan("r")
	ctx = ContextWithSpan(ctx, root)
	if SpanFromContext(ctx) != root {
		t.Fatal("span not recovered from context")
	}
	if got := ContextWithSpan(context.Background(), nil); SpanFromContext(got) != nil {
		t.Fatal("nil span stored in context")
	}
}

func TestSnapshotOfRunningSpan(t *testing.T) {
	s := NewSpan("live")
	time.Sleep(time.Millisecond)
	snap := s.Snapshot()
	if snap.Millis <= 0 {
		t.Fatalf("running span reports %vms", snap.Millis)
	}
	s.End()
	d := s.Duration()
	time.Sleep(time.Millisecond)
	if s.Duration() != d {
		t.Fatal("duration changed after End")
	}
}

// TestConcurrentMetricsAndSpans hammers counters, histogram and a span
// tree from many goroutines while a scraper renders the registry —
// run with -race.
func TestConcurrentMetricsAndSpans(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("llhsc_conc_total", "c")
	hv := reg.NewHistogramVec("llhsc_conc_seconds", "h", nil, "family")
	root := NewSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				hv.With("semantic").Observe(0.001)
				sp := root.StartChild("work")
				sp.SetInt("j", uint64(j))
				sp.End()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				reg.WritePrometheus(&b)
				_ = root.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if hv.With("semantic").Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", hv.With("semantic").Count())
	}
}

// TestSnapshotAllocs pins what a snapshot allocates: one Attrs copy
// per span with attributes and one Children slice per span with
// children, and nothing to read a span's child list, which StartChild
// only ever appends to.
func TestSnapshotAllocs(t *testing.T) {
	root := NewSpan("request")
	root.SetAttr("mode", "enumerate")
	for i := 0; i < 3; i++ {
		vm := root.StartChild("vm")
		vm.SetAttr("cache", "hit")
		for j := 0; j < 2; j++ {
			family := vm.StartChild("family")
			family.SetAttr("violations", "0")
			family.End()
		}
		vm.End()
	}
	root.End()
	const spans, parents = 10, 4
	if got := testing.AllocsPerRun(100, func() { _ = root.Snapshot() }); got != spans+parents {
		t.Errorf("Snapshot: %.0f allocations, want %d (attributes of %d spans, children of %d)",
			got, spans+parents, spans, parents)
	}
}

// TestVecHitAllocs: a label lookup that finds its child builds its key
// on the stack, so it allocates nothing with one label or two — the
// llhsc_check_seconds{family,tier} observation every family run makes
// included.
func TestVecHitAllocs(t *testing.T) {
	reg := NewRegistry()
	hv := reg.NewHistogramVec("llhsc_hit_seconds", "h", nil, "family", "tier")
	cv := reg.NewCounterVec("llhsc_hit_total", "c", "family")
	family, tier := "semantic", "word"
	hv.With(family, tier).Observe(0.001)
	cv.With(family).Inc()
	if got := testing.AllocsPerRun(100, func() {
		hv.With(family, tier).Observe(0.001)
		cv.With(family).Inc()
	}); got != 0 {
		t.Errorf("label lookup hits: %.0f allocations, want 0", got)
	}
	// A miss still files its child under its own copy of the key.
	before := hv.With("semantic", "word").Count()
	hv.With("interrupt", "none").Observe(1)
	if hv.With("semantic", "word").Count() != before || hv.With("interrupt", "none").Count() != 1 {
		t.Error("children mixed up after a miss")
	}
}

// requestShapedTree builds a tree shaped like a traced /check of the
// running example: 23 spans under the root and 21 attributes.
func requestShapedTree() *Span {
	root := NewSpan("request")
	root.StartChild("allocation").End()
	for _, product := range []string{"vm:vm1", "vm:vm2", "platform"} {
		p := root.StartChild(product)
		check := p.StartChild("check")
		derive := check.StartChild("derive")
		derive.SetInt("deltas", 6)
		derive.End()
		for _, f := range []string{"family:syntactic", "family:semantic", "family:memreserve", "family:interrupt"} {
			fs := check.StartChild(f)
			fs.SetInt("violations", 0)
			if f == "family:semantic" {
				fs.SetInt("pairs", 0)
				fs.SetInt("pairs_pruned", 10)
			}
			fs.End()
		}
		check.End()
		p.End()
	}
	root.StartChild("baogen").End()
	root.End()
	return root
}

// TestSpanArenaAllocs pins what a request-shaped tree costs: the root
// with its arena, two span chunks (8 and 16) and two attribute chunks,
// however many spans and attributes that is. Integer attributes are
// kept as numbers, so setting one formats nothing.
func TestSpanArenaAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { requestShapedTree() }); got != 5 {
		t.Errorf("a request-shaped span tree: %.0f allocations, want 5", got)
	}
}

// TestIntAttrRendering: integer attributes render in decimal wherever
// a tree is read, the largest value included.
func TestIntAttrRendering(t *testing.T) {
	s := NewSpan("r")
	s.SetInt("max", ^uint64(0))
	s.SetAttr("s", "")
	s.SetInt("zero", 0)
	s.End()
	want := []Attr{{"max", "18446744073709551615"}, {"s", ""}, {"zero", "0"}}
	if got := s.Snapshot().Attrs; !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v, want %v", got, want)
	}
	var b strings.Builder
	s.WriteTree(&b)
	if !strings.Contains(b.String(), "  max=18446744073709551615  s=  zero=0\n") {
		t.Errorf("tree rendering: %q", b.String())
	}
}

// TestAppendPhases: a span's direct children, summed per name in
// creation order and sorted by name, exactly as a map keyed by name
// and marshalled in key order gave them; grandchildren do not count.
func TestAppendPhases(t *testing.T) {
	if got := (*Span)(nil).AppendPhases(nil); got != nil {
		t.Errorf("nil span phases = %v", got)
	}
	root := NewSpan("request")
	if got := root.AppendPhases(nil); len(got) != 0 {
		t.Errorf("childless span phases = %v", got)
	}
	for _, name := range []string{"vm:vm2", "allocation", "vm:vm2", "baogen", "vm:vm2", "allocation"} {
		c := root.StartChild(name)
		c.StartChild("deeper").End()
		time.Sleep(50 * time.Microsecond)
		c.End()
	}
	root.End()
	want := map[string]float64{}
	for _, c := range root.Snapshot().Children {
		want[c.Name] += c.Millis
	}
	prefix := []Phase{{Name: "kept", Millis: 1}}
	got := root.AppendPhases(prefix)
	if len(got) != 4 || got[0] != prefix[0] {
		t.Fatalf("phases = %v, want the prefix and 3 names", got)
	}
	for i, p := range got[1:] {
		if i > 0 && got[i].Name >= p.Name {
			t.Errorf("phases not sorted: %v", got)
		}
		if p.Millis != want[p.Name] {
			t.Errorf("phase %s = %v ms, want %v", p.Name, p.Millis, want[p.Name])
		}
	}
}

// TestSnapshotIsCoherentWhileRunning: a snapshot of a live tree never
// shows a child starting after the moment the snapshot reads, so no
// running duration comes out negative.
func TestSnapshotIsCoherentWhileRunning(t *testing.T) {
	root := NewSpan("root")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			root.StartChild("c")
		}
	}()
	for i := 0; i < 200; i++ {
		for _, c := range root.Snapshot().Children {
			if c.Millis < 0 {
				t.Fatalf("running child reports %v ms", c.Millis)
			}
		}
	}
	wg.Wait()
}
