package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed phase of a run, with key/value attributes and
// child spans forming a tree. Spans use the monotonic clock embedded
// in time.Time, so durations are immune to wall-clock steps.
//
// Every method is safe on a nil *Span and does nothing — the disabled
// path costs one nil check, which is what keeps uninstrumented runs at
// full speed. Spans are safe for concurrent use: parallel workers may
// attach children to the same parent, and a scraper may snapshot a
// tree that is still running.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts a child span under s. On a nil span it returns
// nil, so instrumentation chains through uninstrumented runs for free.
// Children keep their creation order; parallel fan-outs that need a
// deterministic tree pre-create one child per task in index order
// before dispatching (core.Pipeline does).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Begin re-marks the span's start as now. Spans pre-created in index
// order for a deterministic tree (see StartChild) otherwise measure
// queue wait as work; the worker calls Begin when it actually starts.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.start = time.Now()
	}
	s.mu.Unlock()
}

// End records the span's duration. Repeated End calls keep the first.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr attaches (or appends) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v uint64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// Duration returns the recorded duration, or the running duration for
// a span that has not ended.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanSnapshot is an immutable copy of a span tree, JSON-ready for the
// /check response's "stats" block. StartMs is the span's start offset
// relative to the snapshotted root (0 for the root itself) — the trace
// exporter turns it into Chrome trace-event timestamps.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	StartMs  float64        `json:"startMs"`
	Millis   float64        `json:"ms"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the span tree. Safe while the tree is still being
// built; unended spans report their running duration.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	base := s.start
	s.mu.Unlock()
	return s.snapshotRel(base)
}

// snapshotRel copies the subtree with start offsets relative to base.
func (s *Span) snapshotRel(base time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:    s.name,
		StartMs: float64(s.start.Sub(base)) / float64(time.Millisecond),
		Millis:  float64(s.dur) / float64(time.Millisecond),
	}
	if !s.ended {
		snap.Millis = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	snap.Attrs = append([]Attr(nil), s.attrs...)
	// StartChild only appends, so the children up to this length stay
	// as they are: the slice header is a stable view without a copy.
	kids := s.children
	s.mu.Unlock()
	if len(kids) > 0 {
		snap.Children = make([]SpanSnapshot, len(kids))
		for i, c := range kids {
			snap.Children[i] = c.snapshotRel(base)
		}
	}
	return snap
}

// PhaseSet returns the sorted, de-duplicated names of every span in
// the tree — the determinism tests compare serial vs parallel runs on
// exactly this set.
func (s *Span) PhaseSet() []string {
	seen := make(map[string]bool)
	var walk func(sn SpanSnapshot)
	walk = func(sn SpanSnapshot) {
		seen[sn.Name] = true
		for _, c := range sn.Children {
			walk(c)
		}
	}
	if s != nil {
		walk(s.Snapshot())
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteTree renders the span tree with durations and attributes, one
// span per line, indented by depth (the llhsc check -trace output).
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	writeSnapshot(w, s.Snapshot(), 0)
}

func writeSnapshot(w io.Writer, sn SpanSnapshot, depth int) {
	fmt.Fprintf(w, "%*s%-24s %9.3fms", depth*2, "", sn.Name, sn.Millis)
	for _, a := range sn.Attrs {
		fmt.Fprintf(w, "  %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w)
	for _, c := range sn.Children {
		writeSnapshot(w, c, depth+1)
	}
}

// spanKey is the context key carrying the current span.
type spanKey struct{}

// ContextWithSpan returns a context carrying the span as the current
// instrumentation point.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil when the run is
// uninstrumented. Callers hold the returned *Span and use its nil-safe
// methods directly rather than consulting the context again.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
