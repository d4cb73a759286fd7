// Command llhsc-server serves the llhsc checker as an HTTP API — the
// "cloud service" deployment of the paper's Section V. See
// internal/service for the endpoints and README.md for the error
// taxonomy and limit semantics.
//
// Usage:
//
//	llhsc-server [-addr :8080] [-read-timeout 30s] [-write-timeout 60s]
//	             [-request-timeout 30s] [-max-inflight 16]
//	             [-max-body 4194304] [-solver-conflicts 0]
//	             [-shutdown-grace 15s] [-parallel 0] [-cache-size 256]
//	             [-mode enumerate] [-pprof 0] [-log-requests=true]
//	             [-flight-size 64] [-flight-dump ""]
//
// The server always serves Prometheus-format metrics on GET /metrics
// (request latency, solver work, cache counters) and, unless
// -log-requests=false, writes one structured JSON log line per request
// to stderr, correlated with responses by X-Request-ID.
//
// The server drains gracefully on SIGINT/SIGTERM: new /check and
// /lint requests answer 503 + Retry-After (reason "draining") so load
// balancers fail over immediately, in-flight requests get
// -shutdown-grace to complete, then the listener closes and the
// process exits 0.
//
// Overload never weakens a verdict: once -max-inflight requests are in
// flight, further /check and /lint requests answer 429 + Retry-After
// (see README.md "Degradation").
//
// -pprof <port> exposes net/http/pprof on 127.0.0.1:<port> (loopback
// only, never the service listener); 0 keeps profiling off.
//
// -flight-size keeps the last N requests in a flight-recorder ring,
// served as JSON on GET /debug/flight to loopback peers; with
// -flight-dump the ring is written to disk when a request panics, a
// solver budget runs out, or the process receives SIGQUIT.
//
// Build metadata (llhsc_build_info on /metrics, the "build" block on
// /healthz, the startup log line) is stamped at build time:
//
//	go build -ldflags "-X llhsc/internal/buildinfo.Version=v1.2.3 \
//	  -X llhsc/internal/buildinfo.Commit=$(git rev-parse --short HEAD) \
//	  -X llhsc/internal/buildinfo.Date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" ./cmd/llhsc-server
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (served only when -pprof is set)
	"os"
	"os/signal"
	"syscall"
	"time"

	"llhsc/internal/buildinfo"
	"llhsc/internal/core"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
	"llhsc/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "llhsc-server:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is canceled (SIGINT /
// SIGTERM) or the listener fails. ready, if non-nil, receives the
// bound address once the server is listening (used by tests with
// -addr 127.0.0.1:0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("llhsc-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	readTimeout := fs.Duration("read-timeout", 30*time.Second,
		"max time to read a full request, including the body (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second,
		"max time to write a full response (0 = unlimited)")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second,
		"wall-clock budget per /check or /lint request; exceeding it answers 408 (0 = unlimited)")
	maxInflight := fs.Int("max-inflight", 16,
		"max concurrent /check and /lint requests; excess answers 429 (0 = unlimited)")
	maxBody := fs.Int64("max-body", 4<<20,
		"max request body size in bytes; larger bodies answer 413")
	solverConflicts := fs.Uint64("solver-conflicts", 0,
		"max SAT conflicts per lifted check, shared by a model's first product enumeration or all of a session's queries; exhaustion answers 503 (0 = unlimited)")
	shutdownGrace := fs.Duration("shutdown-grace", 15*time.Second,
		"how long in-flight requests may finish after SIGINT/SIGTERM")
	parallel := fs.Int("parallel", 0,
		"worker count for per-VM checking within one request (0 = GOMAXPROCS, 1 = serial)")
	cacheSize := fs.Int("cache-size", 256,
		"capacity of the check cache, in products (0 = disabled)")
	var mode core.Mode
	fs.Var(&mode, "mode",
		"default checking mode for /check: enumerate (per-product) or lifted (whole product line at once); requests may override per-call")
	pprofPort := fs.Int("pprof", 0,
		"expose net/http/pprof on 127.0.0.1:<port> (0 = disabled)")
	logRequests := fs.Bool("log-requests", true,
		"emit one structured JSON log line per request on stderr")
	flightSize := fs.Int("flight-size", obs.DefaultFlightCapacity,
		"flight-recorder ring size: last N requests served on GET /debug/flight, loopback only (0 = disabled)")
	flightDump := fs.String("flight-dump", "",
		"file the flight ring is dumped to on a panic, a budget-limit stop or SIGQUIT (empty = no dumps)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := service.Options{
		RequestTimeout: *requestTimeout,
		MaxInFlight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		CacheSize:      *cacheSize,
		Mode:           mode,
		Registry:       obs.NewRegistry(), // serves GET /metrics
		FlightSize:     *flightSize,
		FlightDumpPath: *flightDump,
		Limits: core.Limits{
			Solver:      sat.Budget{MaxConflicts: *solverConflicts},
			Parallelism: *parallel,
		},
	}
	if *logRequests {
		opts.LogWriter = os.Stderr
	}
	svc, err := service.NewService(opts)
	if err != nil {
		return err
	}
	handler := http.Handler(svc)
	info := buildinfo.Get()
	log.Printf("llhsc-server %s (commit %s, built %s, %s)",
		info.Version, info.Commit, info.Date, info.GoVersion)

	if fr := svc.FlightRecorder(); fr != nil && *flightDump != "" {
		// SIGQUIT dumps the flight ring on demand (kill -QUIT <pid>)
		// instead of the Go runtime's goroutine-dump-and-exit default.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				if path, derr := fr.Dump("sigquit", ""); derr != nil {
					log.Printf("flight dump: %v", derr)
				} else if path != "" {
					log.Printf("flight ring dumped to %s", path)
				}
			}
		}()
	}

	if *pprofPort != 0 {
		// The profiler gets its own loopback-only listener so it can
		// never be reached through the service address.
		pprofLn, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", *pprofPort))
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pprofLn.Close()
		log.Printf("llhsc-server pprof on http://%s/debug/pprof/", pprofLn.Addr())
		go func() {
			// http.DefaultServeMux carries the net/http/pprof routes.
			err := http.Serve(pprofLn, nil)
			if err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("llhsc-server listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("llhsc-server shutting down, draining for up to %v", *shutdownGrace)
	// Flip the draining gate first: requests arriving during the grace
	// period get an immediate 503 + Retry-After instead of racing the
	// listener teardown, while requests already in flight finish.
	svc.SetDraining(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("llhsc-server stopped")
	return nil
}
