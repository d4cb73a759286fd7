// Request-level observability: X-Request-ID correlation, per-endpoint
// latency metrics, and structured JSON-lines request logging with
// per-phase durations. Everything here is optional — with no Registry
// and no LogWriter configured the middleware only assigns request IDs.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math"
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
// logging or the flight recorder is enabled), the last phase/reason a
// handler recorded before answering, and the check annotations (mode,
// cache tier, stats) the flight record picks up. Once the request is
// answered its span tree is finished: the log line reads its phases
// and the flight record keeps the tree itself.
type reqScope struct {
	id   string
	span *obs.Span

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

// logLine is one request log record. appendJSON writes it as
// json.Marshal wrote the struct it replaced, a string-keyed map for
// phaseMs included (TestRequestLogLineMatchesMarshal and
// FuzzRequestLogLine hold it to that).
type logLine struct {
	Time       time.Time // written in UTC, RFC 3339 with nanoseconds
	Level      string
	RequestID  string
	Method     string
	Path       string
	Status     int
	Class      string
	DurationMs float64
	Phase      string      // omitted when empty
	Reason     string      // omitted when empty
	PhaseMs    []obs.Phase // sorted by name, one per name; omitted when empty
}

// appendJSON appends the line's JSON object and a newline to dst.
func (l *logLine) appendJSON(dst []byte) []byte {
	// RFC 3339 text is digits and -:.TZ, none of which JSON escapes.
	dst = append(dst, `{"time":"`...)
	dst = l.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","level":`...)
	dst = appendJSONString(dst, l.Level)
	dst = append(dst, `,"requestId":`...)
	dst = appendJSONString(dst, l.RequestID)
	dst = append(dst, `,"method":`...)
	dst = appendJSONString(dst, l.Method)
	dst = append(dst, `,"path":`...)
	dst = appendJSONString(dst, l.Path)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(l.Status), 10)
	dst = append(dst, `,"class":`...)
	dst = appendJSONString(dst, l.Class)
	dst = append(dst, `,"durationMs":`...)
	dst = appendJSONFloat(dst, l.DurationMs)
	if l.Phase != "" {
		dst = append(dst, `,"phase":`...)
		dst = appendJSONString(dst, l.Phase)
	}
	if l.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, l.Reason)
	}
	if len(l.PhaseMs) > 0 {
		dst = append(dst, `,"phaseMs":{`...)
		for i, p := range l.PhaseMs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, p.Name)
			dst = append(dst, ':')
			dst = appendJSONFloat(dst, p.Millis)
		}
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation that reads back as f, in exponent form below
// 1e-6 and from 1e21, with a one-digit negative exponent unpadded. f
// must be finite, as a duration is.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// logBufPool holds the buffers log lines are written into.
var logBufPool = sync.Pool{New: func() any { return new([]byte) }}

func (l *jsonLogger) log(line *logLine) {
	bp := logBufPool.Get().(*[]byte)
	*bp = line.appendJSON((*bp)[:0])
	l.mu.Lock()
	_, _ = l.w.Write(*bp) // a failing log sink has nowhere to report to
	l.mu.Unlock()
	if cap(*bp) <= maxPooledJSONBuf {
		logBufPool.Put(bp)
	}
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
		// From here on the span tree is finished: the handler has
		// returned, and every product worker with it.
		sc.span.End()
		if s.logger != nil {
			var phases [16]obs.Phase
			line := requestLogLine(r, sc, status, elapsed, start)
			line.PhaseMs = sc.span.AppendPhases(phases[:0])
			s.logger.log(&line)
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
	rec.Tree = sc.span
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
		Time:       start,
		Level:      "info",
		RequestID:  sc.id,
		Method:     r.Method,
		Path:       r.URL.Path,
		Status:     status,
		Class:      statusClass(status),
		DurationMs: float64(elapsed) / float64(time.Millisecond),
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
