// Package service exposes the llhsc pipeline as an HTTP API, mirroring
// the paper's artifact: "Our llhsc checker was initially designed as a
// tool but has since evolved into a cloud service" (Section V). The
// service accepts a product line (core DTS, includes, deltas, feature
// model, per-VM selections) and returns the full check report plus the
// generated artifacts.
//
// Endpoints:
//
//	GET  /healthz   liveness probe
//	GET  /example   the paper's running example as a ready-made request
//	POST /check     run the pipeline; body and response are JSON
//	POST /lint      check a single DTS (structural + optional semantic)
//
// Error taxonomy (see README.md "Operational limits & failure modes"):
//
//	400  malformed JSON / missing fields
//	408  the per-request timeout expired (Options.RequestTimeout)
//	413  body, source size or nesting depth over the configured limit
//	422  input parsed but is not a valid product line
//	429  too many requests in flight (Options.MaxInFlight); retry later
//	500  a handler panicked; the panic is isolated and serving continues
//	503  a solver/delta budget was exhausted (the answer is Unknown), or
//	     the service is draining ahead of shutdown
//
// Every 429 and 503 carries a Retry-After header (and the same value
// as retryAfterSeconds in the JSON error envelope): these conditions
// are transient by construction — overload clears, budgets are
// per-request, draining ends with the restart — so clients and load
// balancers are told to come back rather than fail the workload.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"llhsc/internal/buildinfo"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// Options configures the hardened handler. The zero value imposes no
// timeout, no concurrency bound, and only the default body-size cap.
type Options struct {
	// RequestTimeout bounds the wall-clock time of one /check or /lint
	// request (0 = unlimited). An expired request answers 408.
	RequestTimeout time.Duration
	// MaxInFlight bounds the number of /check and /lint requests served
	// concurrently (0 = unlimited). Excess requests answer 429 with a
	// Retry-After hint instead of queueing without bound.
	MaxInFlight int
	// MaxBodyBytes caps the request body (default 4 MiB).
	MaxBodyBytes int64
	// Limits bounds each pipeline run (solver budgets, delta op cap)
	// and sets the per-request check parallelism.
	Limits core.Limits
	// CacheSize is the capacity (in products) of the shared check
	// cache, which keeps each product's record under what derives it
	// (0 = disabled). Hit, miss and eviction counters surface on
	// GET /healthz.
	CacheSize int
	// Degrade is retired with overload shedding: NewService accepts
	// only "" and DegradeOff and rejects anything else. Overload
	// answers 429 through MaxInFlight instead. The field stays only so
	// the separately built benchmark module compiles; ROADMAP item 3
	// deletes it.
	Degrade string
	// Mode is the default checking mode for /check (enumerate by
	// default; the -mode server flag). A request's "mode" field
	// overrides it per call.
	Mode core.Mode
	// Registry, when non-nil, enables metrics: per-endpoint latency
	// histograms, the in-flight gauge, pipeline solver counters and the
	// check-cache counters all register on it, and the handler serves
	// the registry as GET /metrics.
	Registry *obs.Registry
	// LogWriter, when non-nil, receives one structured JSON line per
	// request (request ID, status, duration, per-phase millis; non-2xx
	// lines additionally carry the phase reached and the taxonomy
	// class). Typically os.Stderr.
	LogWriter io.Writer
	// FlightSize, when > 0, enables the flight recorder: a ring buffer
	// keeping the last FlightSize completed requests (ID, mode, cache
	// tier, per-phase millis, span tree, stats, taxonomy outcome),
	// served as JSON on GET /debug/flight to loopback peers and dumped
	// to FlightDumpPath when a request ends in a panic or a
	// budget-limit stop (the -flight-size server flag).
	FlightSize int
	// FlightDumpPath is the file flight-recorder crash dumps write to
	// ("" = record in memory only, never dump).
	FlightDumpPath string
}

const defaultMaxBodyBytes = 4 << 20

// DegradeOff is the only non-empty value Options.Degrade accepts.
// ROADMAP item 3 deletes it together with that field.
const DegradeOff = "off"

// retryAfterSeconds is the hint sent with 429/503 responses, and
// retryAfter the Retry-After header value that carries it.
const retryAfterSeconds = 1

var retryAfter = strconv.Itoa(retryAfterSeconds)

// CheckRequest is the JSON body of POST /check.
type CheckRequest struct {
	// CoreDTS is the core-module DeviceTree source (Listing 1).
	CoreDTS string `json:"coreDts"`
	// Includes maps include names to contents (e.g. "cpus.dtsi"),
	// serving both dtc-style /include/ and, when preprocessing is on,
	// cpp-style #include directives.
	Includes map[string]string `json:"includes,omitempty"`
	// Defines are cpp macro definitions applied before parsing, like
	// -D on the llhsc command line. Any definition implies Preprocess.
	Defines map[string]string `json:"defines,omitempty"`
	// Preprocess runs the core DTS through the cpp-style preprocessor
	// (#include/#define/#ifdef), with Includes as the include search
	// space and diagnostics mapped back to the original lines.
	Preprocess bool `json:"preprocess,omitempty"`
	// Deltas is the delta-module source (Listing 4 syntax).
	Deltas string `json:"deltas"`
	// FeatureModel is the textual feature model (Fig. 1a).
	FeatureModel string `json:"featureModel"`
	// VMs selects the features of each VM product; abstract ancestors
	// are implied automatically.
	VMs [][]string `json:"vms"`
	// Mode overrides the server's default checking mode for this
	// request: "enumerate" (per-product) or "lifted" (the whole
	// product line at once). Empty keeps the server default;
	// anything else answers 400.
	Mode string `json:"mode,omitempty"`
	// Trace opts this request into returning its span tree: the
	// response's "trace" block carries the per-phase timing hierarchy
	// the pipeline recorded (the same tree `llhsc check -trace-json`
	// exports in Chrome trace-event form).
	Trace bool `json:"trace,omitempty"`
}

// Violation is the JSON form of a constraint violation.
type Violation struct {
	Path     string `json:"path,omitempty"`
	Property string `json:"property,omitempty"`
	Rule     string `json:"rule"`
	Message  string `json:"message"`
	Delta    string `json:"delta,omitempty"`
}

// LiftedFinding is the JSON form of one family-based finding: a
// violation that some valid configuration of the product line
// exhibits, together with that witness configuration (sorted feature
// names). Only lifted-mode responses carry these.
type LiftedFinding struct {
	Family    string    `json:"family"`
	Violation Violation `json:"violation"`
	Config    []string  `json:"config"`
}

// VMResult is the JSON form of one VM's outcome.
type VMResult struct {
	Name       string      `json:"name"`
	Deltas     []string    `json:"deltas"`
	DTS        string      `json:"dts"`
	Violations []Violation `json:"violations,omitempty"`
}

// CheckResponse is the JSON response of POST /check, the type clients
// decode it into. The server writes it straight from the pipeline's
// report (writeCheckReply), in the bytes json.Encoder with two-space
// indentation writes for this type.
type CheckResponse struct {
	OK         bool        `json:"ok"`
	Allocation []Violation `json:"allocation,omitempty"`
	// Lifted carries the family-based findings of a lifted-mode run;
	// per-VM and platform violation lists stay empty in that mode.
	Lifted   []LiftedFinding `json:"lifted,omitempty"`
	VMs      []VMResult      `json:"vms"`
	Platform VMResult        `json:"platform"`

	PlatformC       string   `json:"platformC,omitempty"`
	ConfigC         string   `json:"configC,omitempty"`
	JailhouseRootC  string   `json:"jailhouseRootC,omitempty"`
	JailhouseCellsC []string `json:"jailhouseCellsC,omitempty"`
	QEMUArgs        []string `json:"qemuArgs,omitempty"`

	// RequestID echoes the X-Request-ID response header so the report
	// can be correlated with the server's structured log lines.
	RequestID string `json:"requestId,omitempty"`
	// Stats is the run's solver and cache work summary (per checker
	// family), straight from the pipeline.
	Stats *core.RunStats `json:"stats,omitempty"`
	// Trace is the request's span tree, present only when the request
	// set "trace": true.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
}

// errorResponse is the JSON error envelope. Reason is a stable
// machine-readable tag for limit stops ("request-timeout",
// "budget:conflicts", "overloaded", ...); RetryAfter is the suggested
// back-off in seconds on 429/503.
type errorResponse struct {
	Error      string `json:"error"`
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// Handler returns the service's HTTP handler with default options.
func Handler() http.Handler { return NewHandler(Options{}) }

// NewHandler returns the service's HTTP handler hardened per opts:
// every endpoint gets panic isolation, and /check + /lint additionally
// get the per-request timeout and the in-flight bound. It panics if
// NewService rejects opts; use NewService to get the error instead,
// and to manage draining.
func NewHandler(opts Options) http.Handler {
	svc, err := NewService(opts)
	if err != nil {
		panic(err)
	}
	return svc
}

// Service is the HTTP handler plus its operational controls, such as
// the draining switch the shutdown path flips before srv.Shutdown.
type Service struct {
	http.Handler
	srv *server
}

// NewService builds the hardened handler and returns it with its
// operational controls. It fails if opts.Degrade is set to anything
// but DegradeOff.
func NewService(opts Options) (*Service, error) {
	if opts.Degrade != "" && opts.Degrade != DegradeOff {
		return nil, fmt.Errorf("service: Degrade %q: overload shedding was retired; "+
			"MaxInFlight answers overload with 429", opts.Degrade)
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &server{
		opts:    opts,
		cache:   checkcache.New(opts.CacheSize),
		schemas: schema.StandardSet(),
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
		s.overloaded = overloadedReply(opts.MaxInFlight)
	}
	if opts.Registry != nil {
		s.metrics = newServiceMetrics(opts.Registry)
		s.pipeMetrics = core.NewPipelineMetrics(opts.Registry)
		buildinfo.Register(opts.Registry)
		s.cache.RegisterMetrics(opts.Registry)
		opts.Registry.Register("llhsc_frontend_memo_hits_total",
			"/check requests whose core DTS, deltas and feature model came parsed from the front-end memo.", &s.memo.hits)
		opts.Registry.Register("llhsc_frontend_memo_misses_total",
			"/check requests that parsed their core DTS, deltas and feature model.", &s.memo.misses)
		opts.Registry.Register("llhsc_service_draining",
			"1 while the service answers 503 ahead of shutdown.", obs.FuncGauge(func() float64 {
				if s.draining.Load() {
					return 1
				}
				return 0
			}))
	}
	if opts.LogWriter != nil {
		s.logger = &jsonLogger{w: opts.LogWriter}
	}
	if opts.FlightSize > 0 {
		s.flight = obs.NewFlightRecorder(opts.FlightSize)
		s.flight.SetDumpPath(opts.FlightDumpPath)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/example", handleExample)
	mux.Handle("/check", s.guard(s.handleCheck))
	mux.Handle("/lint", s.guard(s.handleLint))
	if opts.Registry != nil {
		mux.Handle("/metrics", opts.Registry.Handler())
	}
	if s.flight != nil {
		mux.Handle("/debug/flight", obs.LoopbackOnly(s.flight.Handler()))
	}
	return &Service{Handler: s.observe(recoverPanics(mux)), srv: s}, nil
}

// SetDraining flips the draining switch: while set, /check and /lint
// answer 503 + Retry-After (reason "draining") so load balancers fail
// over, while requests already in flight run to completion. The
// shutdown path sets it just before http.Server.Shutdown.
func (svc *Service) SetDraining(v bool) { svc.srv.draining.Store(v) }

type server struct {
	opts       Options
	inflight   chan struct{}     // nil = unlimited
	overloaded []byte            // the 429 reply's body, when inflight is set
	cache      *checkcache.Cache // nil = disabled; shared across requests
	memo       frontEndMemo      // the last parsed /check front end, shared across requests
	schemas    *schema.Set       // the standard set, shared read-only across requests

	draining atomic.Bool // set via Service.SetDraining

	metrics     *serviceMetrics       // nil = no Registry configured
	pipeMetrics *core.PipelineMetrics // nil = no Registry configured
	logger      *jsonLogger           // nil = no LogWriter configured
	flight      *obs.FlightRecorder   // nil = flight recorder disabled

	// beforeCheck, when a test sets it, runs at the top of every /check
	// pipeline run, so the test can drive a panic through the real
	// handler stack. Always nil outside tests.
	beforeCheck func()
}

// FlightRecorder exposes the service's flight recorder (nil when
// Options.FlightSize is 0), so the binary's SIGQUIT handler can dump
// the ring on demand.
func (svc *Service) FlightRecorder() *obs.FlightRecorder { return svc.srv.flight }

// recoverPanics isolates handler panics: the request answers a JSON
// 500 (when nothing has been written yet) and the server keeps
// serving, instead of tearing down the connection.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				// The precise reason makes the request's log line and
				// flight record say "panic" (and triggers the flight
				// recorder's crash dump) instead of the generic class.
				markReason(r.Context(), "panic")
				writeError(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// guard applies the draining gate, the in-flight semaphore and the
// per-request timeout to a heavy endpoint.
func (s *server) guard(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			markPhase(r.Context(), "admission")
			markReason(r.Context(), "draining")
			w.Header().Set("Retry-After", retryAfter)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error:      "service is draining ahead of shutdown",
				Reason:     "draining",
				RetryAfter: retryAfterSeconds,
			})
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				markPhase(r.Context(), "admission")
				markReason(r.Context(), "overloaded")
				w.Header().Set("Retry-After", retryAfter)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				_, _ = w.Write(s.overloaded) // the client may have gone away
				return
			}
		}
		if s.opts.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	})
}

// overloadedReply is the 429 body: the errorResponse writeJSON writes
// for an overload, rendered once because the limit is fixed.
func overloadedReply(limit int) []byte {
	w := replyWriter{}
	w.open('{')
	w.key("error")
	w.str("too many requests in flight (limit " + strconv.Itoa(limit) + ")")
	w.key("reason")
	w.str("overloaded")
	w.key("retryAfterSeconds")
	w.int(retryAfterSeconds)
	w.close('}')
	return append(w.b, '\n')
}

// writeLimitError maps a limit/cancellation stop to the taxonomy: 408
// when the request's own deadline (or the client hanging up) caused
// it, 503 with a retry hint when a configured budget ran out first.
func writeLimitError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		markReason(r.Context(), "request-timeout")
		writeJSON(w, http.StatusRequestTimeout, errorResponse{
			Error:  fmt.Sprintf("request aborted: %v", err),
			Reason: "request-timeout",
		})
		return
	}
	reason := "budget"
	var lim *sat.LimitError
	var step *delta.StepLimitError
	switch {
	case errors.As(err, &lim):
		reason = "budget:" + lim.Reason
	case errors.As(err, &step):
		reason = "budget:delta-ops"
	}
	markReason(r.Context(), reason)
	w.Header().Set("Retry-After", retryAfter)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:      fmt.Sprintf("check incomplete, result unknown: %v", err),
		Reason:     reason,
		RetryAfter: retryAfterSeconds,
	})
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleHealthz serializes the health document. Beyond the baseline
// {build, status, checkCache}, only "draining" ever appears, and only
// while the service drains — a serving deployment keeps the exact
// health shape it always had (pinned by TestHealthzJSONShapeUnchanged).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{"status": "ok", "build": buildinfo.Get()}
	if s.draining.Load() {
		resp["status"] = "draining"
		resp["draining"] = true
	}
	if s.cache != nil {
		resp["checkCache"] = s.cache.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExample returns the running example as a request body, so
// clients can GET /example and POST the result to /check unchanged.
func handleExample(w http.ResponseWriter, r *http.Request) {
	model, err := runningexample.Model()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckRequest{
		CoreDTS:      runningexample.CoreDTS,
		Includes:     map[string]string{"cpus.dtsi": runningexample.CPUsDTSI},
		Deltas:       runningexample.DeltasSource,
		FeatureModel: model.Format(),
		VMs: [][]string{
			runningexample.VM1Config().Sorted(),
			runningexample.VM2Config().Sorted(),
		},
	})
}

// decodeBody reads the whole body under the body-size cap and decodes
// it (decode.go), mapping an exceeded cap to 413 and a body that is
// not one JSON object of the request's shape to 400.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v requestBody) bool {
	err := readRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		markReason(r.Context(), "body-too-large")
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error:  fmt.Sprintf("request body over %d bytes", tooBig.Limit),
			Reason: "body-too-large",
		})
		return false
	}
	writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	return false
}

// inputStatus classifies a parse failure: guarded-limit errors are 413
// (the input is too big/deep for this deployment), anything else 422.
func inputStatus(err error) int {
	if errors.Is(err, dts.ErrTooDeep) || errors.Is(err, dts.ErrSourceTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusUnprocessableEntity
}

// parseSource parses one DTS body, routing it through the cpp
// preprocessor when the request asks for it (explicitly or by carrying
// macro definitions). The request's Includes map doubles as the
// preprocessor's include filesystem, and the preprocessor's own size
// budget mirrors the body cap the plain parser gets via parseOpts.
func (s *server) parseSource(file, src string, includes, defines map[string]string, preprocess bool) (*dts.Tree, error) {
	popts := s.parseOpts(dts.MapIncluder(includes))
	if !preprocess && len(defines) == 0 {
		return dts.Parse(file, src, popts...)
	}
	return preproc.Parse(file, src, preproc.Options{
		FS:           preproc.MapFS(includes),
		IncludePaths: []string{"."},
		Defines:      defines,
		MaxBytes:     int(s.opts.MaxBodyBytes),
	}, popts...)
}

func (s *server) parseOpts(inc dts.Includer) []dts.ParseOption {
	return []dts.ParseOption{
		dts.WithIncluder(inc),
		// the body cap already bounds one source; includes multiply it,
		// so cap the total at the same order of magnitude
		dts.WithMaxSourceBytes(int(s.opts.MaxBodyBytes)),
	}
}

func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	markPhase(r.Context(), "decode")
	var req CheckRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, status, err := s.runCheck(r.Context(), &req)
	if err != nil {
		var le *core.LimitError
		if errors.As(err, &le) {
			markPhase(r.Context(), "pipeline:"+le.Phase)
			markCheckOutcome(r.Context(), cacheTierOf(le.Stats), &le.Stats)
			writeLimitError(w, r, err)
			return
		}
		writeError(w, status, "%v", err)
		return
	}
	writeCheckReply(w, &res)
	res.report.Release()
}

// checkResult is a finished /check run: its report and what the reply
// carries besides it.
type checkResult struct {
	report    *core.Report
	requestID string            // "" when no request scope is in the context
	trace     *obs.SpanSnapshot // the request's span tree, if it asked for it
}

func (s *server) runCheck(ctx context.Context, req *CheckRequest) (checkResult, int, error) {
	if req.CoreDTS == "" || req.Deltas == "" || req.FeatureModel == "" || len(req.VMs) == 0 {
		return checkResult{}, http.StatusBadRequest,
			fmt.Errorf("coreDts, deltas, featureModel and vms are all required")
	}
	if s.beforeCheck != nil {
		s.beforeCheck()
	}
	markPhase(ctx, "parse")
	fe, status, err := s.parseFrontEnd(req)
	if err != nil {
		return checkResult{}, status, err
	}
	configs := make([]featmodel.Configuration, len(req.VMs))
	for i, names := range req.VMs {
		if configs[i], err = fe.Model.Complete(names); err != nil {
			return checkResult{}, http.StatusUnprocessableEntity, fmt.Errorf("vm %d selects %w", i+1, err)
		}
	}

	mode := s.opts.Mode
	if req.Mode != "" {
		mode, err = core.ParseMode(req.Mode)
		if err != nil {
			return checkResult{}, http.StatusBadRequest, err
		}
	}
	markCheck(ctx, mode.String())

	// A trace request needs a span tree even when neither logging nor
	// the flight recorder put one in the context.
	var traceSpan *obs.Span
	if req.Trace && obs.SpanFromContext(ctx) == nil {
		traceSpan = obs.NewSpan("request")
		ctx = obs.ContextWithSpan(ctx, traceSpan)
	}

	markPhase(ctx, "pipeline")
	pipeline := &core.Pipeline{
		FrontEnd:  fe,
		Schemas:   s.schemas,
		VMConfigs: configs,
		Cache:     s.cache,
		Metrics:   s.pipeMetrics,
		Mode:      mode,
	}
	report, err := pipeline.RunContext(ctx, s.opts.Limits)
	if err != nil {
		return checkResult{}, http.StatusUnprocessableEntity, err
	}
	markPhase(ctx, "respond")

	res := checkResult{report: report}
	if sc := scopeFrom(ctx); sc != nil {
		res.requestID = sc.id
		// The flight record keeps the stats after the report is
		// released, so it gets its own copy.
		stats := report.Stats
		markCheckOutcome(ctx, cacheTierOf(stats), &stats)
	}
	if req.Trace {
		span := obs.SpanFromContext(ctx)
		if traceSpan != nil {
			traceSpan.End()
		}
		if span != nil {
			sn := span.Snapshot()
			res.trace = &sn
		}
	}
	return res, http.StatusOK, nil
}

// cacheTierOf folds a run's cache counters into the single tier label
// the flight record carries.
func cacheTierOf(stats core.RunStats) string {
	switch {
	case stats.CacheHits > 0 && stats.CacheMisses == 0:
		return "hit"
	case stats.CacheHits > 0:
		return "mixed"
	case stats.CacheMisses > 0:
		return "miss"
	}
	return "none"
}

// LintRequest is the JSON body of POST /lint: a single DTS (plus
// includes) checked without a product line.
type LintRequest struct {
	DTS      string            `json:"dts"`
	Includes map[string]string `json:"includes,omitempty"`
	// Defines are cpp macro definitions; any definition implies
	// Preprocess.
	Defines map[string]string `json:"defines,omitempty"`
	// Preprocess runs the DTS through the cpp-style preprocessor
	// before linting, as for /check.
	Preprocess bool `json:"preprocess,omitempty"`
	// Semantic enables the semantic families, in table order
	// (constraints.SemanticFamilies: regions and overlap, memreserve,
	// interrupt; word arithmetic, held to their SMT encodings by test
	// oracles), in addition to the structural baseline.
	Semantic bool `json:"semantic"`
}

// LintResponse is the JSON response of POST /lint.
type LintResponse struct {
	OK         bool        `json:"ok"`
	Warnings   []string    `json:"warnings,omitempty"`   // dtc-style lint
	Structural []Violation `json:"structural,omitempty"` // dt-schema baseline
	Semantic   []Violation `json:"semantic,omitempty"`   // the semantic families, in table order
}

func (s *server) handleLint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	markPhase(r.Context(), "decode")
	var req LintRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.DTS == "" {
		writeError(w, http.StatusBadRequest, "dts is required")
		return
	}
	markPhase(r.Context(), "parse")
	tree, err := s.parseSource("input.dts", req.DTS, req.Includes, req.Defines, req.Preprocess)
	if err != nil {
		writeError(w, inputStatus(err), "%v", err)
		return
	}
	markPhase(r.Context(), "lint")
	resp := &LintResponse{}
	for _, lw := range tree.Lint() {
		resp.Warnings = append(resp.Warnings, lw.String())
	}
	for _, v := range s.schemas.Validate(tree) {
		resp.Structural = append(resp.Structural, Violation{
			Path: v.Path, Property: v.Property, Rule: v.SchemaID, Message: v.Message,
		})
	}
	if req.Semantic {
		vs, err := constraints.CheckFamilies(r.Context(), constraints.SemanticFamilies, s.schemas, &constraints.TreeFacts{Tree: tree})
		if err != nil {
			writeLimitError(w, r, err)
			return
		}
		resp.Semantic = make([]Violation, 0, len(vs))
		for _, v := range vs {
			resp.Semantic = append(resp.Semantic, Violation{
				Path: v.Path, Property: v.Property, Rule: v.Rule, Message: v.Message, Delta: v.Origin.Delta,
			})
		}
	}
	resp.OK = len(resp.Warnings) == 0 && len(resp.Structural) == 0 && len(resp.Semantic) == 0
	writeJSON(w, http.StatusOK, resp)
}
