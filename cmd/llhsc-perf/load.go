package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"llhsc/internal/core"
	"llhsc/internal/obs"
	"llhsc/internal/service"
)

// clients is the closed loop's width: one client per core of the
// reference machine, each sending its next request only after the
// previous reply, like CI jobs waiting on a verdict.
const clients = 2

// maxBodyBytes is llhsc-server's default -max-body.
const maxBodyBytes = 4 << 20

// serverOptions are the options llhsc-server builds from its default
// flags, with the request log discarded. Only the cache size and the
// per-request parallelism vary.
func serverOptions(cacheSize, parallelism int) service.Options {
	return service.Options{
		RequestTimeout: 30 * time.Second,
		MaxInFlight:    16,
		MaxBodyBytes:   maxBodyBytes,
		CacheSize:      cacheSize,
		Degrade:        service.DegradeOff,
		Registry:       obs.NewRegistry(),
		LogWriter:      io.Discard,
		FlightSize:     obs.DefaultFlightCapacity,
		Limits:         core.Limits{Parallelism: parallelism},
	}
}

// target sends a workload's pool bodies through a service handler in
// process and checks every reply against its known answer.
type target struct {
	h        http.Handler
	endpoint string
	pool     *pool
}

func newTarget(w workload, p *pool, parallelism int) (*target, error) {
	svc, err := service.NewService(serverOptions(w.cacheSize, parallelism))
	if err != nil {
		return nil, err
	}
	return &target{h: svc, endpoint: w.endpoint, pool: p}, nil
}

// send posts body i and returns the reply's verdict, or an error for a
// non-2xx status, an unreadable reply or a wrong answer.
func (t *target) send(i int) (verdict, error) {
	req := httptest.NewRequest(http.MethodPost, t.endpoint, bytes.NewReader(t.pool.bodies[i]))
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return verdict{}, fmt.Errorf("body %d: status %d: %s", i, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	got, err := verdictOf(t.endpoint, rec.Body.Bytes())
	if err != nil {
		return verdict{}, fmt.Errorf("body %d: %w", i, err)
	}
	if want := t.pool.expected[i]; !got.equal(want) {
		return got, fmt.Errorf("body %d: got %v, want %v", i, got, want)
	}
	return got, nil
}

// loopResult is what a closed-loop run saw.
type loopResult struct {
	latencies []time.Duration // of successful requests
	attempted int
	failed    int
	elapsed   time.Duration // first send to last reply
}

// closedLoop runs the clients until d has passed, each taking the next
// body from the shared send order. A request in flight at the deadline
// completes and counts.
func (t *target) closedLoop(d time.Duration, next *atomic.Int64) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			attempted, failed := 0, 0
			for time.Now().Before(deadline) {
				i := t.pool.stream[int(next.Add(1)-1)%len(t.pool.stream)]
				t0 := time.Now()
				_, err := t.send(i)
				elapsed := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					if failed == 1 {
						fmt.Fprintln(os.Stderr, "llhsc-perf:", err)
					}
					continue
				}
				lat = append(lat, elapsed)
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// roundResult is one (workload, round) measurement, taken in a process
// of its own so that set-up time and memory belong to it alone.
type roundResult struct {
	SetupS        float64 `json:"setup_s"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CPUMsPerReq   float64 `json:"cpu_ms_per_req"`
	AllocKBPerReq float64 `json:"alloc_kb_per_req"`
	RSSMB         float64 `json:"rss_mb"`
	Samples       int     `json:"samples"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
}

// runRound sets the workload up, warms it for warmup, then measures the
// closed loop for measure. Set-up runs from started (process start) to
// the end of the first, cold request.
func runRound(w workload, seed int64, measure, warmup time.Duration, started time.Time) (roundResult, error) {
	p, err := w.build(seed)
	if err != nil {
		return roundResult{}, err
	}
	t, err := newTarget(w, p, 0)
	if err != nil {
		return roundResult{}, err
	}
	var res roundResult
	var next atomic.Int64
	res.Attempted++
	if _, err := t.send(p.stream[next.Add(1)-1]); err != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "llhsc-perf:", err)
	}
	res.SetupS = time.Since(started).Seconds()

	warm := t.closedLoop(warmup, &next)
	cpu0, alloc0 := cpuTime(), totalAlloc()
	var run loopResult
	res.RSSMB, err = medianRSS(func() { run = t.closedLoop(measure, &next) })
	cpu1, alloc1 := cpuTime(), totalAlloc()
	if err != nil {
		return res, err
	}

	res.Attempted += warm.attempted + run.attempted
	res.Failed += warm.failed + run.failed
	done := len(run.latencies)
	if done == 0 {
		return res, fmt.Errorf("%s: no request completed in %v", w.name, measure)
	}
	sort.Slice(run.latencies, func(i, j int) bool { return run.latencies[i] < run.latencies[j] })
	res.Samples = done
	res.LatencyP50Ms = ms(percentile(run.latencies, 0.50))
	res.LatencyP90Ms = ms(percentile(run.latencies, 0.90))
	res.ThroughputRPS = float64(done) / run.elapsed.Seconds()
	res.CPUMsPerReq = ms(cpu1-cpu0) / float64(done)
	res.AllocKBPerReq = float64(alloc1-alloc0) / 1024 / float64(done)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile interpolates linearly between the order statistics of a
// sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap allocation of the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

// medianRSS runs f while sampling the process's resident set size
// (VmRSS) every rssEvery, and returns the median sample in MiB. The
// median is the memory the service holds under the load; the high-water
// mark (VmHWM) is set by garbage-collection spikes of a few milliseconds
// and differs by half between identical runs.
func medianRSS(f func()) (float64, error) {
	stop := make(chan struct{})
	type sampled struct {
		mb  []float64
		err error
	}
	done := make(chan sampled)
	go func() {
		var s sampled
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				s.err = err
			}
			s.mb = append(s.mb, mb)
			select {
			case <-stop:
				done <- s
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	s := <-done
	return median(s.mb), s.err
}

// rssMB reads the process's resident set size (VmRSS).
func rssMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}
