// Request-level observability: X-Request-ID correlation, per-endpoint
// latency metrics, and structured JSON-lines request logging with
// per-phase durations. Everything here is optional — with no Registry
// and no LogWriter configured the middleware only assigns request IDs.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llhsc/internal/obs"
)

// serviceMetrics are the llhsc_service_* families.
type serviceMetrics struct {
	requestSeconds *obs.HistogramVec // latency by endpoint and status class
	requests       *obs.CounterVec   // completed requests by endpoint and status class
	inflight       *obs.Gauge
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		requestSeconds: reg.NewHistogramVec("llhsc_service_request_seconds",
			"Request latency by endpoint and status class.", nil, "endpoint", "class"),
		requests: reg.NewCounterVec("llhsc_service_requests_total",
			"Completed requests by endpoint and status class.", "endpoint", "class"),
		inflight: reg.NewGauge("llhsc_service_inflight_requests",
			"Requests currently being served."),
	}
}

// reqScope is the per-request observability state carried in the
// context: the correlation ID, the request's root span (nil unless
// logging or tracing is enabled), the last phase/reason a handler
// recorded before answering, and the check annotations (mode, cache
// tier, stats) the flight record picks up. Once the request is
// answered, snap holds the one snapshot of its span tree and phaseMs
// its top-level phase durations, shared by the log line and the flight
// record.
type reqScope struct {
	id      string
	span    *obs.Span
	snap    *obs.SpanSnapshot
	phaseMs map[string]float64

	mu        sync.Mutex
	phase     string
	reason    string
	mode      string
	cacheTier string
	stats     any
}

type scopeKey struct{}

func scopeFrom(ctx context.Context) *reqScope {
	sc, _ := ctx.Value(scopeKey{}).(*reqScope)
	return sc
}

// markPhase records how far a request got; the final value is what a
// non-2xx log line reports as the phase reached.
func markPhase(ctx context.Context, phase string) {
	if sc := scopeFrom(ctx); sc != nil {
		sc.mu.Lock()
		sc.phase = phase
		sc.mu.Unlock()
	}
}

// markReason records a precise taxonomy reason (e.g. "budget:conflicts")
// for the request's log line; without one the logger derives a generic
// class from the status code.
func markReason(ctx context.Context, reason string) {
	if sc := scopeFrom(ctx); sc != nil {
		sc.mu.Lock()
		sc.reason = reason
		sc.mu.Unlock()
	}
}

// markCheck records the check request's resolved mode for its flight
// record.
func markCheck(ctx context.Context, mode string) {
	if sc := scopeFrom(ctx); sc != nil {
		sc.mu.Lock()
		sc.mode = mode
		sc.mu.Unlock()
	}
}

// markCheckOutcome records how a finished check was served (cache tier)
// and its work summary for its flight record.
func markCheckOutcome(ctx context.Context, cacheTier string, stats any) {
	if sc := scopeFrom(ctx); sc != nil {
		sc.mu.Lock()
		sc.cacheTier, sc.stats = cacheTier, stats
		sc.mu.Unlock()
	}
}

// requestIDFallback feeds IDs when the system randomness source fails.
var requestIDFallback atomic.Uint64

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestIDFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// endpointLabel bounds the endpoint label to the known routes so a
// path-scanning client cannot grow the metric family without limit.
func endpointLabel(path string) string {
	switch path {
	case "/check", "/lint", "/healthz", "/example", "/metrics":
		return path
	}
	return "other"
}

// statusClass folds a status code to its class ("2xx", "4xx", ...).
func statusClass(status int) string {
	if c := status / 100; c >= 1 && c <= 5 {
		return statusClasses[c-1]
	}
	return strconv.Itoa(status/100) + "xx"
}

var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// reasonForStatus is the generic taxonomy class logged for a non-2xx
// response when no handler recorded a more precise reason (see the
// package comment's error taxonomy).
func reasonForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad-request"
	case http.StatusNotFound:
		return "not-found"
	case http.StatusMethodNotAllowed:
		return "method-not-allowed"
	case http.StatusRequestTimeout:
		return "request-timeout"
	case http.StatusRequestEntityTooLarge:
		return "too-large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusServiceUnavailable:
		return "unknown-budget"
	}
	return statusClass(status)
}

// jsonLogger writes one JSON object per line; the mutex keeps lines
// atomic under concurrent requests.
type jsonLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// logLine is the shape of one request log record.
type logLine struct {
	Time       string             `json:"time"`
	Level      string             `json:"level"`
	RequestID  string             `json:"requestId"`
	Method     string             `json:"method"`
	Path       string             `json:"path"`
	Status     int                `json:"status"`
	Class      string             `json:"class"`
	DurationMs float64            `json:"durationMs"`
	Phase      string             `json:"phase,omitempty"`
	Reason     string             `json:"reason,omitempty"`
	PhaseMs    map[string]float64 `json:"phaseMs,omitempty"`
}

func (l *jsonLogger) log(line logLine) {
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(buf, '\n'))
}

// observe is the outermost middleware: it assigns the X-Request-ID,
// installs the request scope (and, when logging or the flight recorder
// is enabled, a root span the pipeline hangs its phase spans off),
// tracks latency and in-flight metrics, emits exactly one structured
// log line per request — for non-2xx responses including the phase
// reached and the taxonomy class — and files the request's flight
// record.
func (s *server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		sc := &reqScope{id: id}
		ctx := context.WithValue(r.Context(), scopeKey{}, sc)
		if s.logger != nil || s.flight != nil {
			sc.span = obs.NewSpan("request")
			ctx = obs.ContextWithSpan(ctx, sc.span)
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		if s.metrics != nil {
			s.metrics.inflight.Inc()
			defer s.metrics.inflight.Dec()
		}
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start)
		status := rec.status()
		if s.metrics != nil {
			ep, class := endpointLabel(r.URL.Path), statusClass(status)
			s.metrics.requestSeconds.With(ep, class).Observe(elapsed.Seconds())
			s.metrics.requests.With(ep, class).Inc()
		}
		if sc.span != nil {
			sc.span.End()
			sn := sc.span.Snapshot()
			sc.snap, sc.phaseMs = &sn, topLevelPhaseMillis(sn)
		}
		if s.logger != nil {
			s.logger.log(requestLogLine(r, sc, status, elapsed, start))
		}
		if s.flight != nil {
			s.recordFlight(r, sc, status, elapsed, start)
		}
	})
}

// recordFlight captures one finished request into the flight ring and,
// when the request ended in a panic or a budget-limit stop, dumps the
// ring — including this record — to the configured crash-dump file.
func (s *server) recordFlight(r *http.Request, sc *reqScope, status int, elapsed time.Duration, start time.Time) {
	sc.mu.Lock()
	reason := sc.reason
	rec := obs.FlightRecord{
		Time:       start.UTC().Format(time.RFC3339Nano),
		RequestID:  sc.id,
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     status,
		Mode:       sc.mode,
		CacheTier:  sc.cacheTier,
		DurationMs: float64(elapsed) / float64(time.Millisecond),
		Stats:      sc.stats,
	}
	sc.mu.Unlock()
	rec.Outcome = reason
	if rec.Outcome == "" {
		if status >= 300 {
			rec.Outcome = reasonForStatus(status)
		} else {
			rec.Outcome = "ok"
		}
	}
	rec.PhaseMs, rec.Span = sc.phaseMs, sc.snap
	s.flight.Record(rec)
	if rec.Outcome == "panic" || strings.HasPrefix(rec.Outcome, "budget:") {
		s.flight.Dump(rec.Outcome, "")
	}
}

// requestLogLine assembles the log record for one finished request.
func requestLogLine(r *http.Request, sc *reqScope, status int, elapsed time.Duration, start time.Time) logLine {
	sc.mu.Lock()
	phase, reason := sc.phase, sc.reason
	sc.mu.Unlock()
	line := logLine{
		Time:       start.UTC().Format(time.RFC3339Nano),
		Level:      "info",
		RequestID:  sc.id,
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     status,
		Class:      statusClass(status),
		DurationMs: float64(elapsed) / float64(time.Millisecond),
		PhaseMs:    sc.phaseMs,
	}
	if status >= 300 {
		line.Level = "error"
		line.Phase = phase
		if line.Phase == "" {
			line.Phase = "admission" // rejected before any handler phase
		}
		line.Reason = reason
		if line.Reason == "" {
			line.Reason = reasonForStatus(status)
		}
	}
	return line
}

// topLevelPhaseMillis flattens the request span's direct children
// (allocation, vm:<name>, platform, baogen, ...) into a name→duration
// map for the log line and the flight record.
func topLevelPhaseMillis(sn obs.SpanSnapshot) map[string]float64 {
	if len(sn.Children) == 0 {
		return nil
	}
	out := make(map[string]float64, len(sn.Children))
	for _, c := range sn.Children {
		out[c.Name] += c.Millis
	}
	return out
}
