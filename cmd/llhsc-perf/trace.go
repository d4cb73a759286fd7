package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"llhsc/internal/checkcache"
	"llhsc/internal/obs"
)

// counterMetrics are the work counters the replay records per request.
var counterMetrics = []string{
	"dts.nodes", "delta.ops",
	"sat.conflicts", "sat.propagations",
	"constraints.semantic_pairs", "constraints.pairs_pruned",
	"constraints.word_decided", "constraints.solver_calls",
	"lifted.queries", "lifted.pruned", "lifted.word_decided",
	"checkcache.lookups", "checkcache.evictions",
}

// perLayerMetrics lists every metric a traced run reports, with its
// unit. Times and counts are means per timed request, so a layer's time
// is its share of the mean request however its work is spread: on
// line-cached most requests hit the cache in every tree, and a median
// would read 0 for the checker families. The two ratios are totals over
// the timed requests.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, s := range layerSpans {
		out = append(out, metricDef{s + "_us", "us"})
	}
	for _, c := range counterMetrics {
		out = append(out, metricDef{c, "count"})
	}
	return append(out,
		metricDef{"checkcache.hit_ratio", "hits/lookups"},
		metricDef{"request_us", "us"},
		metricDef{"unattributed_us", "us"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}

type metricDef struct{ name, unit string }

// traceResult is a traced run's outcome.
type traceResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// tracer sends one workload's requests to an untraced reference service
// and replays each of them layer by layer.
type tracer struct {
	w      workload
	p      *pool
	ref    *target
	rp     *replayer
	parent *obs.Span // keeps every request's spans for a Chrome trace; nil keeps none
}

// traced is one request as the tracer saw it.
type traced struct {
	svc, rep time.Duration      // reference service and replay wall times
	self     map[string]float64 // self time per span name, in µs
	counts   counts
}

// one sends body i to the reference and replays it, failing when either
// answer is wrong or the two verdicts differ.
func (t *tracer) one(i int) (traced, error) {
	t0 := time.Now()
	want, err := t.ref.send(i)
	svc := time.Since(t0)
	if err != nil {
		return traced{}, fmt.Errorf("reference service: %w", err)
	}
	root := t.parent.StartChild("request")
	if root == nil {
		root = obs.NewSpan("request")
	}
	root.SetInt("body", uint64(i))
	c := counts{}
	t1 := time.Now()
	out, err := t.rp.do(context.Background(), t.w.endpoint, t.p.bodies[i], root, c)
	rep := time.Since(t1)
	root.End()
	if err != nil {
		return traced{}, fmt.Errorf("replay of body %d: %w", i, err)
	}
	got, err := verdictOf(t.w.endpoint, out)
	if err != nil {
		return traced{}, fmt.Errorf("replay of body %d: %w", i, err)
	}
	if !got.equal(want) {
		return traced{}, fmt.Errorf("body %d: replay verdict %v, service verdict %v", i, got, want)
	}
	return traced{svc: svc, rep: rep, self: selfTimes(root.Snapshot()), counts: c}, nil
}

// traceWorkload is the traced run. One client sends every pool body
// once, so every known answer is checked against both the service and
// the replay, then follows the send order for d; only those timed
// requests feed the metrics. The reference service runs products
// serially (Parallelism 1), as the replay does, so that request_us less
// the layers' self times (unattributed_us) is work no layer covers
// rather than parallel speed-up. With parent set, each request's spans
// are kept under it for a Chrome trace.
func traceWorkload(w workload, seed int64, d time.Duration, parent *obs.Span) (traceResult, error) {
	p, err := w.build(seed)
	if err != nil {
		return traceResult{}, err
	}
	ref, err := newTarget(w, p, 1)
	if err != nil {
		return traceResult{}, err
	}
	t := &tracer{w: w, p: p, ref: ref, parent: parent,
		rp: &replayer{cache: checkcache.New(w.cacheSize), maxBody: maxBodyBytes}}

	res := traceResult{metrics: map[string]float64{}}
	send := func(i int) (traced, bool) {
		res.attempted++
		r, err := t.one(i)
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "llhsc-perf:", err)
		}
		return r, err == nil
	}
	for i := range p.bodies {
		send(i)
	}

	var (
		sums               = map[string]float64{}
		n                  float64
		svcTotal, repTotal time.Duration
	)
	for k, start := 0, time.Now(); k == 0 || time.Since(start) < d; k++ {
		r, ok := send(p.stream[k%len(p.stream)])
		if !ok {
			continue
		}
		n++
		var layered float64
		for _, s := range layerSpans {
			sums[s+"_us"] += r.self[s]
			layered += r.self[s]
		}
		sums["request_us"] += us(r.svc)
		sums["unattributed_us"] += us(r.svc) - layered
		for name, v := range r.counts {
			sums[name] += v
		}
		svcTotal += r.svc
		repTotal += r.rep
	}
	if n == 0 {
		return res, fmt.Errorf("%s: no traced request succeeded", w.name)
	}
	for _, m := range perLayerMetrics() {
		res.metrics[m.name] = sums[m.name] / n
	}
	res.metrics["checkcache.hit_ratio"] = 0
	if lookups := sums["checkcache.lookups"]; lookups > 0 {
		res.metrics["checkcache.hit_ratio"] = sums["checkcache.hits"] / lookups
	}
	res.metrics["trace.overhead_ratio"] = float64(repTotal) / float64(svcTotal)
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTimes sums, per span name, each span's duration less that of its
// direct children, in microseconds.
func selfTimes(sn obs.SpanSnapshot) map[string]float64 {
	out := map[string]float64{}
	var walk func(sn obs.SpanSnapshot)
	walk = func(sn obs.SpanSnapshot) {
		self := sn.Millis
		for _, c := range sn.Children {
			self -= c.Millis
			walk(c)
		}
		out[sn.Name] += self * 1000
	}
	walk(sn)
	return out
}
