// Package obs is llhsc's dependency-free observability layer: a span
// tracer for per-run phase attribution (trace.go) and a metrics
// registry with Prometheus text exposition (this file).
//
// Both halves are built for the pipeline's concurrency model. Metric
// updates are single atomic operations — workers hammering a counter
// from the parallel fan-out never contend on a lock — and the registry
// lock is taken only on registration and exposition. Tracing follows
// the nil-object pattern: every method on a nil *Span is a no-op, so
// uninstrumented runs pay one nil check per phase instead of branching
// at every call site.
//
// Metric names follow the scheme llhsc_<pkg>_<name>, where <pkg> is
// the internal package that owns the instrument (service, checkcache,
// sat, smt, constraints). Counters end in _total; histograms use
// seconds. See DESIGN.md §10.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use, so structs can embed one without a constructor.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets, plus a
// running sum and count. Observations and exposition are lock-free;
// a scrape may observe a sum and bucket counts from slightly different
// instants, which Prometheus tolerates by design (counters only grow).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// DefBuckets is the default latency bucket layout, in seconds. It
// spans 100µs to ~100s, doubling-ish — wide enough for both cache-hit
// checks and budget-bounded SMT marathons.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (nil = DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search would not beat it here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Metric is anything the registry can expose. writeTo emits the
// sample lines (no HELP/TYPE headers) for the metric under the given
// full name and pre-rendered label section ("" or `{k="v",...}`).
type Metric interface {
	metricType() string
	writeTo(w io.Writer, name, labels string)
}

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
}

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.Value())
}

func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) writeTo(w io.Writer, name, labels string) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(inner, formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(inner, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

func bucketLabels(inner, le string) string {
	if inner == "" {
		return `{le="` + le + `"}`
	}
	return "{" + inner + `,le="` + le + `"}`
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// FuncGauge exposes a value computed at scrape time — for quantities
// that already live under someone else's lock (cache entry counts).
type FuncGauge func() float64

func (f FuncGauge) metricType() string { return "gauge" }
func (f FuncGauge) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f()))
}

// vec is the shared label-to-child machinery behind CounterVec,
// GaugeVec and HistogramVec. Children are created on first use and
// cached; the read path is one RLock + map lookup.
type vec struct {
	labelNames []string
	mu         sync.RWMutex
	children   map[string]Metric
	mk         func() Metric
}

func newVec(labelNames []string, mk func() Metric) *vec {
	return &vec{labelNames: labelNames, children: make(map[string]Metric), mk: mk}
}

func (v *vec) with(labelValues ...string) Metric {
	if len(labelValues) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: expected %d label values, got %d",
			len(v.labelNames), len(labelValues)))
	}
	// The key is built on the stack and looked up without converting
	// it, so a hit allocates nothing; only a new child copies it.
	var buf [128]byte
	key := buf[:0]
	for i, lv := range labelValues {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, lv...)
	}
	v.mu.RLock()
	m, ok := v.children[string(key)]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.children[string(key)]; ok {
		return m
	}
	m = v.mk()
	v.children[string(key)] = m
	return m
}

func (v *vec) writeAll(w io.Writer, name string) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		m := v.children[k]
		v.mu.RUnlock()
		m.writeTo(w, name, renderLabels(v.labelNames, strings.Split(k, "\x00")))
	}
}

func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ v *vec }

// With returns the counter for the given label values, creating it on
// first use.
func (cv *CounterVec) With(labelValues ...string) *Counter {
	return cv.v.with(labelValues...).(*Counter)
}

func (cv *CounterVec) metricType() string { return "counter" }
func (cv *CounterVec) writeTo(w io.Writer, name, _ string) {
	cv.v.writeAll(w, name)
}

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ v *vec }

// With returns the gauge for the given label values.
func (gv *GaugeVec) With(labelValues ...string) *Gauge {
	return gv.v.with(labelValues...).(*Gauge)
}

func (gv *GaugeVec) metricType() string { return "gauge" }
func (gv *GaugeVec) writeTo(w io.Writer, name, _ string) {
	gv.v.writeAll(w, name)
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	v *vec
}

// With returns the histogram for the given label values.
func (hv *HistogramVec) With(labelValues ...string) *Histogram {
	return hv.v.with(labelValues...).(*Histogram)
}

func (hv *HistogramVec) metricType() string { return "histogram" }
func (hv *HistogramVec) writeTo(w io.Writer, name, _ string) {
	hv.v.writeAll(w, name)
}

// family is one registered metric name.
type family struct {
	name, help string
	metric     Metric
}

// Registry holds registered metrics and renders them in Prometheus
// text exposition format. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Register adds a metric under the given family name. Registering the
// same name twice panics — exactly one source of truth per family.
func (r *Registry) Register(name, help string, m Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.families[name] = &family{name: name, help: help, metric: m}
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.Register(name, help, c)
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.Register(name, help, g)
	return g
}

// NewHistogram registers and returns a histogram (nil bounds =
// DefBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.Register(name, help, h)
	return h
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{v: newVec(labelNames, func() Metric { return &Counter{} })}
	r.Register(name, help, cv)
	return cv
}

// NewGaugeVec registers and returns a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	gv := &GaugeVec{v: newVec(labelNames, func() Metric { return &Gauge{} })}
	r.Register(name, help, gv)
	return gv
}

// NewHistogramVec registers and returns a labeled histogram family
// (nil bounds = DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	hv := &HistogramVec{v: newVec(labelNames, func() Metric { return NewHistogram(bounds) })}
	r.Register(name, help, hv)
	return hv
}

// FamilyInfo describes one registered metric family — the metrics
// hygiene tests iterate these to check naming and help conventions.
type FamilyInfo struct {
	Name, Help, Type string
}

// Families returns every registered family sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{Name: f.name, Help: f.help, Type: f.metric.metricType()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format, sorted by family name for a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.metric.metricType())
		f.metric.writeTo(w, f.name, "")
	}
}

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format (the GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
