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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"llhsc/internal/buildinfo"
	"llhsc/internal/checkcache"
	"llhsc/internal/checkcache/persist"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/faultinject"
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
	// MaxNodeDepth caps DTS node nesting (0 = the dts default).
	MaxNodeDepth int
	// Limits bounds each pipeline run (solver budgets, delta op cap)
	// and sets the per-request check parallelism.
	Limits core.Limits
	// CacheSize is the capacity (in trees) of the shared
	// content-addressed check-result cache (0 = disabled). Hit, miss
	// and eviction counters surface on GET /healthz.
	CacheSize int
	// CacheDir, when non-empty, layers a crash-safe persistent tier
	// (internal/checkcache/persist) under the in-memory cache: results
	// survive restarts, guarded by a circuit breaker that falls back to
	// memory-only mode while the disk misbehaves. Requires CacheSize >
	// 0. Use NewService to observe open errors; NewHandler degrades to
	// memory-only if the directory cannot be opened.
	CacheDir string
	// CacheMaxBytes caps the persistent tier's total on-disk size
	// (0 = the persist package default).
	CacheMaxBytes int64
	// Degrade selects overload shedding for /check: "" or "off"
	// (never), "auto" (shed to lint-only checking while the in-flight
	// semaphore stays saturated past a dwell threshold), "force" (shed
	// every request; an operator switch). See internal/service/degrade.go.
	Degrade string
	// DegradeEnterAfter / DegradeExitAfter tune auto mode's dwell
	// thresholds (defaults 2s / 5s).
	DegradeEnterAfter time.Duration
	DegradeExitAfter  time.Duration
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
	// SlowQueryMs, when > 0, enables the solver slow-query log: every
	// semantic pair decision and lifted reachability query is counted,
	// and queries at or over the threshold emit a structured warn line
	// on LogWriter plus — with SlowQueryBundleDir set — a self-contained
	// reproducer bundle `llhsc replay` can re-execute offline.
	SlowQueryMs float64
	// SlowQueryBundleDir is the directory slow-query reproducer bundles
	// are written to ("" = log lines only).
	SlowQueryBundleDir string
	// Faults, when non-nil, arms fault-injection points on the request
	// path (the "service.check" point fires at the top of every /check
	// pipeline run). Chaos tests use it to drive panics and errors
	// through the real handler stack; production deployments leave it
	// nil.
	Faults *faultinject.Set
}

const defaultMaxBodyBytes = 4 << 20

// retryAfterSeconds is the hint sent with 429/503 responses.
const retryAfterSeconds = 1

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
	// request: "enumerate" (per-product) or "lifted" (whole product
	// line in one solver session). Empty keeps the server default;
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

// CheckResponse is the JSON response of POST /check.
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

	// Degraded is "lint-only" when overload shedding skipped the
	// semantic-family checks for this request: the structural verdict is
	// exact, but absent semantic/memreserve/interrupt violations prove
	// nothing. Also sent as the X-Llhsc-Degraded response header.
	Degraded string `json:"degraded,omitempty"`

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
// get the per-request timeout and the in-flight bound. If CacheDir is
// set but the persistent tier cannot be opened, the handler degrades
// to a memory-only cache (the disk is an optimization, never a
// dependency); use NewService to observe the open error and to manage
// draining and shutdown.
func NewHandler(opts Options) http.Handler {
	svc, err := NewService(opts)
	if err != nil {
		opts.CacheDir = ""
		svc, _ = NewService(opts)
	}
	return svc
}

// Service is the HTTP handler plus its operational controls: the
// draining switch the shutdown path flips before srv.Shutdown, and
// Close for the persistent cache tier.
type Service struct {
	http.Handler
	srv *server
}

// NewService builds the hardened handler and returns it with its
// operational controls. The only error source is opening the
// persistent cache tier (Options.CacheDir).
func NewService(opts Options) (*Service, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &server{
		opts:    opts,
		cache:   checkcache.New(opts.CacheSize),
		degrade: newDegradeController(opts.Degrade, opts.DegradeEnterAfter, opts.DegradeExitAfter),
	}
	if opts.CacheDir != "" && s.cache != nil {
		store, err := persist.Open(persist.Options{
			Dir:           opts.CacheDir,
			MaxTotalBytes: opts.CacheMaxBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("service: persistent cache tier: %w", err)
		}
		s.store = store
		s.cache.AttachPersist(store, checkcache.NewBreaker(0, 0, 0))
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	if opts.Registry != nil {
		s.metrics = newServiceMetrics(opts.Registry)
		s.pipeMetrics = core.NewPipelineMetrics(opts.Registry)
		buildinfo.Register(opts.Registry)
		s.cache.RegisterMetrics(opts.Registry)
		s.cache.RegisterTierMetrics(opts.Registry)
		opts.Registry.Register("llhsc_service_draining",
			"1 while the service answers 503 ahead of shutdown.", obs.FuncGauge(func() float64 {
				if s.draining.Load() {
					return 1
				}
				return 0
			}))
		if s.degrade != nil {
			opts.Registry.Register("llhsc_service_degraded",
				"1 while /check sheds to lint-only checking under overload.",
				obs.FuncGauge(func() float64 {
					if s.degrade.peek() {
						return 1
					}
					return 0
				}))
			opts.Registry.Register("llhsc_service_shed_requests_total",
				"/check requests answered lint-only by overload shedding.",
				obs.FuncGauge(func() float64 {
					return float64(s.degrade.stats().Shed)
				}))
		}
	}
	if opts.LogWriter != nil {
		s.logger = &jsonLogger{w: opts.LogWriter}
	}
	if opts.FlightSize > 0 {
		s.flight = obs.NewFlightRecorder(opts.FlightSize)
		s.flight.SetDumpPath(opts.FlightDumpPath)
	}
	if opts.SlowQueryMs > 0 {
		s.slowLog = obs.NewSlowQueryLog(opts.LogWriter, opts.SlowQueryMs)
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

// Draining reports the switch's current position.
func (svc *Service) Draining() bool { return svc.srv.draining.Load() }

// Close releases the persistent cache tier (a no-op without one). Call
// after the HTTP server has shut down — in-flight requests may still
// touch the store.
func (svc *Service) Close() error {
	if svc.srv.store == nil {
		return nil
	}
	return svc.srv.store.Close()
}

type server struct {
	opts     Options
	inflight chan struct{}     // nil = unlimited
	cache    *checkcache.Cache // nil = disabled; shared across requests

	store    *persist.Store     // nil = memory-only cache
	degrade  *degradeController // nil = shedding off
	draining atomic.Bool        // set via Service.SetDraining

	metrics     *serviceMetrics       // nil = no Registry configured
	pipeMetrics *core.PipelineMetrics // nil = no Registry configured
	logger      *jsonLogger           // nil = no LogWriter configured
	flight      *obs.FlightRecorder   // nil = flight recorder disabled
	slowLog     *obs.SlowQueryLog     // nil = slow-query log disabled
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
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
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
				s.degrade.observe(len(s.inflight), cap(s.inflight))
				defer func() { <-s.inflight }()
			default:
				s.degrade.observe(cap(s.inflight), cap(s.inflight))
				markPhase(r.Context(), "admission")
				markReason(r.Context(), "overloaded")
				w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{
					Error:      fmt.Sprintf("too many requests in flight (limit %d)", s.opts.MaxInFlight),
					Reason:     "overloaded",
					RetryAfter: retryAfterSeconds,
				})
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

// writeLimitError maps a limit/cancellation stop to the taxonomy: 408
// when the request's own deadline (or the client hanging up) caused
// it, 503 with a retry hint when a configured budget ran out first.
func writeLimitError(w http.ResponseWriter, r *http.Request, err error) {
	// The solver's wall-clock poll can observe an expired deadline a
	// moment before the request context's own timer fires, so an
	// expired request deadline counts as a request timeout even while
	// r.Context().Err() is still nil.
	requestExpired := r.Context().Err() != nil
	if d, ok := r.Context().Deadline(); ok && !time.Now().Before(d) &&
		errors.Is(err, context.DeadlineExceeded) {
		requestExpired = true
	}
	if requestExpired {
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
	w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:      fmt.Sprintf("check incomplete, result unknown: %v", err),
		Reason:     reason,
		RetryAfter: retryAfterSeconds,
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding of our plain structs cannot fail; ignore the writer error
	// (the client has gone away).
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleHealthz serializes the health document. Fields beyond the
// baseline {build, status, checkCache} appear only when their feature
// is configured — a memory-only, no-degradation deployment keeps the
// exact health shape it always had (pinned by
// TestHealthzJSONShapeUnchanged).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{"status": "ok", "build": buildinfo.Get()}
	if s.draining.Load() {
		resp["status"] = "draining"
		resp["draining"] = true
	}
	if s.cache != nil {
		resp["checkCache"] = s.cache.Stats()
	}
	if tier := s.cache.Tier(); tier != nil {
		resp["persistCache"] = tier
	}
	if s.degrade != nil {
		resp["degrade"] = s.degrade.stats()
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

// decodeBody decodes the JSON body under the body-size cap, mapping an
// exceeded cap to 413 and malformed JSON to 400.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(v)
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
	opts := []dts.ParseOption{
		dts.WithIncluder(inc),
		// the body cap already bounds one source; includes multiply it,
		// so cap the total at the same order of magnitude
		dts.WithMaxSourceBytes(int(s.opts.MaxBodyBytes)),
	}
	if s.opts.MaxNodeDepth > 0 {
		opts = append(opts, dts.WithMaxNodeDepth(s.opts.MaxNodeDepth))
	}
	return opts
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
	resp, status, err := s.runCheck(r.Context(), &req)
	if err != nil {
		var le *core.LimitError
		if errors.As(err, &le) {
			markPhase(r.Context(), "pipeline:"+le.Phase)
			writeLimitError(w, r, err)
			return
		}
		writeError(w, status, "%v", err)
		return
	}
	if resp.Degraded != "" {
		w.Header().Set("X-Llhsc-Degraded", resp.Degraded)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) runCheck(ctx context.Context, req *CheckRequest) (*CheckResponse, int, error) {
	if req.CoreDTS == "" || req.Deltas == "" || req.FeatureModel == "" || len(req.VMs) == 0 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("coreDts, deltas, featureModel and vms are all required")
	}
	if s.opts.Faults != nil {
		if err := s.opts.Faults.Fire("service.check"); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	markPhase(ctx, "parse")
	tree, err := s.parseSource("core.dts", req.CoreDTS, req.Includes, req.Defines, req.Preprocess)
	if err != nil {
		return nil, inputStatus(err), fmt.Errorf("core DTS: %w", err)
	}
	deltas, err := delta.Parse("deltas", req.Deltas)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("deltas: %w", err)
	}
	model, err := featmodel.ParseModel("featuremodel", req.FeatureModel)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("feature model: %w", err)
	}
	configs := make([]featmodel.Configuration, len(req.VMs))
	for i, names := range req.VMs {
		cfg := featmodel.ConfigOf(names...)
		for name := range cfg {
			if model.Feature(name) == nil {
				return nil, http.StatusUnprocessableEntity,
					fmt.Errorf("vm %d selects unknown feature %q", i+1, name)
			}
			for p := model.Parent(name); p != nil; p = model.Parent(p.Name) {
				cfg[p.Name] = true
			}
		}
		cfg[model.Root.Name] = true
		configs[i] = cfg
	}

	mode := s.opts.Mode
	if req.Mode != "" {
		mode, err = core.ParseMode(req.Mode)
		if err != nil {
			return nil, http.StatusBadRequest, err
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
	lintOnly := s.degrade.active()
	pipeline := &core.Pipeline{
		Core:               tree,
		Deltas:             deltas,
		Model:              model,
		Schemas:            schema.StandardSet(),
		VMConfigs:          configs,
		Cache:              s.cache,
		Metrics:            s.pipeMetrics,
		Mode:               mode,
		LintOnly:           lintOnly,
		SlowQuery:          s.slowLog,
		SlowQueryBundleDir: s.opts.SlowQueryBundleDir,
	}
	report, err := pipeline.RunContext(ctx, s.opts.Limits)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	markPhase(ctx, "respond")

	stats := report.Stats
	resp := &CheckResponse{
		OK:         report.OK(),
		Stats:      &stats,
		Allocation: toViolations(report.Allocation),
		Lifted:     toLiftedFindings(report.Lifted),
		Platform: VMResult{
			Name:       "platform",
			Deltas:     report.Platform.Trace,
			DTS:        report.Platform.DTS,
			Violations: toViolations(report.Platform.Violations),
		},
		PlatformC:      report.PlatformC,
		ConfigC:        report.ConfigC,
		JailhouseRootC: report.JailhouseRootC,
		// Copied, not aliased: Release clears these two backing arrays
		// when the report shell goes back to its pool below.
		JailhouseCellsC: append([]string(nil), report.JailhouseCellsC...),
		QEMUArgs:        append([]string(nil), report.QEMUArgs...),
	}
	for _, vm := range report.VMs {
		resp.VMs = append(resp.VMs, VMResult{
			Name:       vm.Name,
			Deltas:     vm.Trace,
			DTS:        vm.DTS,
			Violations: toViolations(vm.Violations),
		})
	}
	// Everything the response needs is copied out; recycle the shell.
	report.Release()
	if lintOnly {
		resp.Degraded = "lint-only"
	}
	if sc := scopeFrom(ctx); sc != nil {
		resp.RequestID = sc.id
	}
	markCheckOutcome(ctx, cacheTierOf(stats), &stats)
	if req.Trace {
		span := obs.SpanFromContext(ctx)
		if traceSpan != nil {
			traceSpan.End()
		}
		if span != nil {
			sn := span.Snapshot()
			resp.Trace = &sn
		}
	}
	return resp, http.StatusOK, nil
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

// toLiftedFindings copies a lifted-mode report's findings into their
// JSON shape (the witness configuration flattens to its sorted feature
// names). Nothing aliases the report, so Release stays safe.
func toLiftedFindings(fs []constraints.LiftedFinding) []LiftedFinding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]LiftedFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, LiftedFinding{
			Family: f.Family,
			Violation: Violation{
				Path:     f.Violation.Path,
				Property: f.Violation.Property,
				Rule:     f.Violation.Rule,
				Message:  f.Violation.Message,
				Delta:    f.Violation.Origin.Delta,
			},
			Config: f.Config.Sorted(),
		})
	}
	return out
}

func toViolations(vs []constraints.Violation) []Violation {
	out := make([]Violation, 0, len(vs))
	for _, v := range vs {
		out = append(out, Violation{
			Path:     v.Path,
			Property: v.Property,
			Rule:     v.Rule,
			Message:  v.Message,
			Delta:    v.Origin.Delta,
		})
	}
	return out
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
	// Semantic enables the overlap/interrupt/memreserve checks (word
	// arithmetic, held to their SMT encodings by test oracles) in
	// addition to the structural baseline.
	Semantic bool `json:"semantic"`
}

// LintResponse is the JSON response of POST /lint.
type LintResponse struct {
	OK         bool        `json:"ok"`
	Warnings   []string    `json:"warnings,omitempty"`   // dtc-style lint
	Structural []Violation `json:"structural,omitempty"` // dt-schema baseline
	Semantic   []Violation `json:"semantic,omitempty"`   // overlap/interrupt/memreserve checks
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
	for _, v := range schema.StandardSet().Validate(tree) {
		resp.Structural = append(resp.Structural, Violation{
			Path: v.Path, Property: v.Property, Rule: v.SchemaID, Message: v.Message,
		})
	}
	if req.Semantic {
		ctx := r.Context()
		_, semViolations, err := constraints.NewSemanticChecker().CheckContext(ctx, tree)
		if err != nil {
			writeLimitError(w, r, err)
			return
		}
		irq, err := constraints.InterruptChecker{}.CheckContext(ctx, tree)
		if err != nil {
			writeLimitError(w, r, err)
			return
		}
		mr, err := constraints.MemReserveChecker{}.CheckContext(ctx, tree)
		if err != nil {
			writeLimitError(w, r, err)
			return
		}
		semViolations = append(semViolations, irq...)
		semViolations = append(semViolations, mr...)
		resp.Semantic = toViolations(semViolations)
	}
	resp.OK = len(resp.Warnings) == 0 && len(resp.Structural) == 0 && len(resp.Semantic) == 0
	writeJSON(w, http.StatusOK, resp)
}
