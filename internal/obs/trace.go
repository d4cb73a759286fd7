package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed phase of a run, with key/value attributes and
// child spans forming a tree. Spans use the monotonic clock, so
// durations are immune to wall-clock steps.
//
// Every method is safe on a nil *Span and does nothing — the disabled
// path costs one nil check, which is what keeps uninstrumented runs at
// full speed. Spans are safe for concurrent use: parallel workers may
// attach children to the same parent, and a scraper may snapshot a
// tree that is still running.
//
// A tree lives in one arena its root owns (spanTree): spans are carved
// from chunks that never move, so a *Span stays put, and one mutex
// guards the whole tree. Children and attributes are kept in creation
// order as circular lists, each entry pointing at the next and the
// owner at the last, so adding one is a few pointer writes. Integer
// attributes are kept as numbers and formatted only when rendered.
type Span struct {
	tree      *spanTree
	name      string
	start     time.Duration // since tree.epoch
	dur       time.Duration // < 0 while the span runs
	lastChild *Span         // its next is the first child
	next      *Span         // the next sibling, circularly
	lastAttr  *attr         // its next is the first attribute
}

// spanTree is the arena of one span tree: the root span, the chunks
// the rest are carved from, and the lock every span of the tree takes.
type spanTree struct {
	mu    sync.Mutex
	epoch time.Time // the root's creation; every start is an offset from it
	root  Span
	spans []Span // the unused rest of the newest span chunk
	attrs []attr // the unused rest of the newest attribute chunk
	// Sizes of the newest chunks: they double from firstChunk up to
	// maxChunk, so a tree of n spans takes O(log n) allocations.
	spanChunk, attrChunk int
}

const (
	firstChunk = 8
	maxChunk   = 512
)

// attr is one attribute: a string, or an integer (isInt) formatted
// when rendered.
type attr struct {
	key   string
	str   string
	num   uint64
	next  *attr // the span's next attribute, circularly
	isInt bool
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	t := &spanTree{epoch: time.Now()}
	t.root = Span{tree: t, name: name, dur: -1}
	return &t.root
}

// carve returns the next free entry of a chunk, first allocating a
// chunk of the next size when free is used up; the tree's lock is held.
func carve[T any](free *[]T, size *int) *T {
	if len(*free) == 0 {
		*size = min(max(2**size, firstChunk), maxChunk)
		*free = make([]T, *size)
	}
	e := &(*free)[0]
	*free = (*free)[1:]
	return e
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
	t := s.tree
	now := time.Since(t.epoch)
	t.mu.Lock()
	c := carve(&t.spans, &t.spanChunk)
	*c = Span{tree: t, name: name, start: now, dur: -1}
	if s.lastChild == nil {
		c.next = c
	} else {
		c.next = s.lastChild.next
		s.lastChild.next = c
	}
	s.lastChild = c
	t.mu.Unlock()
	return c
}

// Begin re-marks the span's start as now. Spans pre-created in index
// order for a deterministic tree (see StartChild) otherwise measure
// queue wait as work; the worker calls Begin when it actually starts.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	t := s.tree
	now := time.Since(t.epoch)
	t.mu.Lock()
	if s.dur < 0 {
		s.start = now
	}
	t.mu.Unlock()
}

// End records the span's duration. Repeated End calls keep the first.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tree
	now := time.Since(t.epoch)
	t.mu.Lock()
	if s.dur < 0 {
		s.dur = max(now-s.start, 0)
	}
	t.mu.Unlock()
}

// SetAttr attaches (or appends) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.addAttr(attr{key: key, str: value})
	s.tree.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v uint64) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.addAttr(attr{key: key, num: v, isInt: true})
	s.tree.mu.Unlock()
}

// addAttr appends a to s's attributes; the tree's lock is held.
func (s *Span) addAttr(a attr) {
	t := s.tree
	p := carve(&t.attrs, &t.attrChunk)
	*p = a
	if s.lastAttr == nil {
		p.next = p
	} else {
		p.next = s.lastAttr.next
		s.lastAttr.next = p
	}
	s.lastAttr = p
}

func (a *attr) value() string {
	if a.isInt {
		return strconv.FormatUint(a.num, 10)
	}
	return a.str
}

// durationAt returns the span's duration, or for a running span its
// duration at now; the tree's lock is held, and was when now was read,
// so no span in the tree started after now.
func (s *Span) durationAt(now time.Duration) time.Duration {
	if s.dur >= 0 {
		return s.dur
	}
	return now - s.start
}

// Duration returns the recorded duration, or the running duration for
// a span that has not ended.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	t := s.tree
	t.mu.Lock()
	defer t.mu.Unlock()
	return s.durationAt(time.Since(t.epoch))
}

// firstChild returns s's first child, or nil; the tree's lock is held.
// The children run from it through next until it comes round again.
func (s *Span) firstChild() *Span {
	if s.lastChild == nil {
		return nil
	}
	return s.lastChild.next
}

// nextSibling returns the sibling after c under s, or nil after the
// last; the tree's lock is held.
func (s *Span) nextSibling(c *Span) *Span {
	if c == s.lastChild {
		return nil
	}
	return c.next
}

// firstAttr and nextAttr walk s's attributes as firstChild and
// nextSibling walk its children; the tree's lock is held.
func (s *Span) firstAttr() *attr {
	if s.lastAttr == nil {
		return nil
	}
	return s.lastAttr.next
}

func (s *Span) nextAttr(a *attr) *attr {
	if a == s.lastAttr {
		return nil
	}
	return a.next
}

// millis converts a duration to the float milliseconds every rendering
// of a span reports.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
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
	t := s.tree
	t.mu.Lock()
	defer t.mu.Unlock()
	return s.snapshot(s.start, time.Since(t.epoch))
}

// snapshot copies the subtree with start offsets relative to base; the
// tree's lock is held.
func (s *Span) snapshot(base, now time.Duration) SpanSnapshot {
	snap := SpanSnapshot{
		Name:    s.name,
		StartMs: millis(s.start - base),
		Millis:  millis(s.durationAt(now)),
	}
	if s.lastAttr != nil {
		n := 0
		for a := s.firstAttr(); a != nil; a = s.nextAttr(a) {
			n++
		}
		snap.Attrs = make([]Attr, 0, n)
		for a := s.firstAttr(); a != nil; a = s.nextAttr(a) {
			snap.Attrs = append(snap.Attrs, Attr{Key: a.key, Value: a.value()})
		}
	}
	if s.lastChild != nil {
		n := 0
		for c := s.firstChild(); c != nil; c = s.nextSibling(c) {
			n++
		}
		snap.Children = make([]SpanSnapshot, 0, n)
		for c := s.firstChild(); c != nil; c = s.nextSibling(c) {
			snap.Children = append(snap.Children, c.snapshot(base, now))
		}
	}
	return snap
}

// Phase is the total duration, in milliseconds, of a span's direct
// children of one name.
type Phase struct {
	Name   string
	Millis float64
}

// AppendPhases appends the durations of s's direct children to dst,
// summed per name (in creation order) and sorted by name: the
// request log line's and the flight record's "phaseMs". Unended
// children report their running duration.
func (s *Span) AppendPhases(dst []Phase) []Phase {
	if s == nil {
		return dst
	}
	t := s.tree
	t.mu.Lock()
	now := time.Since(t.epoch)
	from := len(dst)
	for c := s.firstChild(); c != nil; c = s.nextSibling(c) {
		dst = append(dst, Phase{Name: c.name, Millis: millis(c.durationAt(now))})
	}
	t.mu.Unlock()
	// An insertion sort keeps equal names in creation order, so each
	// sum adds in the order the children started.
	ps := dst[from:]
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Name < ps[j-1].Name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	n := 0
	for i, p := range ps {
		if i > 0 && p.Name == ps[n-1].Name {
			ps[n-1].Millis += p.Millis
			continue
		}
		ps[n] = p
		n++
	}
	return dst[:from+n]
}

// PhaseSet returns the sorted, de-duplicated names of every span in
// the tree — the determinism tests compare serial vs parallel runs on
// exactly this set.
func (s *Span) PhaseSet() []string {
	seen := make(map[string]bool)
	if s != nil {
		s.tree.mu.Lock()
		s.names(seen)
		s.tree.mu.Unlock()
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// names adds the names of the subtree's spans to seen; the tree's lock
// is held.
func (s *Span) names(seen map[string]bool) {
	seen[s.name] = true
	for c := s.firstChild(); c != nil; c = s.nextSibling(c) {
		c.names(seen)
	}
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
