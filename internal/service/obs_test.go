// Tests for the request observability layer: /metrics exposition,
// X-Request-ID correlation, the /check stats block, structured request
// logging (including the non-2xx contract), and /healthz-vs-/metrics
// cache counter consistency.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"llhsc/internal/buildinfo"
	"llhsc/internal/obs"
)

// syncBuffer is a goroutine-safe log sink for tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// eventually polls cond until it holds, failing the test after a
// generous deadline. The observe middleware files a request's log
// line, flight record and latency sample only after the handler
// returns, and a client that has already decoded the JSON body can get
// its next request in before that happens — so tests wait for the
// entry of the request they made instead of reading the latest one.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logLineFor waits for the JSON log line carrying the given request ID
// and decodes it.
func logLineFor(t *testing.T, buf *syncBuffer, id string) map[string]interface{} {
	t.Helper()
	var line map[string]interface{}
	eventually(t, "the log line of request "+id, func() bool {
		for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var m map[string]interface{}
			if json.Unmarshal([]byte(raw), &m) == nil && m["requestId"] == id {
				line = m
				return true
			}
		}
		return false
	})
	return line
}

func obsServer(t *testing.T, opts Options) (*httptest.Server, *obs.Registry, *syncBuffer) {
	t.Helper()
	reg := obs.NewRegistry()
	buf := &syncBuffer{}
	opts.Registry = reg
	opts.LogWriter = buf
	srv := httptest.NewServer(NewHandler(opts))
	t.Cleanup(srv.Close)
	return srv, reg, buf
}

// exampleBody fetches the running example request body from /example.
func exampleBody(t *testing.T, srv *httptest.Server) CheckRequest {
	t.Helper()
	var req CheckRequest
	if resp := getJSON(t, srv.URL+"/example", &req); resp.StatusCode != http.StatusOK {
		t.Fatalf("/example status %d", resp.StatusCode)
	}
	return req
}

// TestRequestIDAssignedAndEchoed: every response carries an
// X-Request-ID; a caller-provided one is preserved, and /check echoes
// it in the JSON body for log correlation.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	srv, _, _ := obsServer(t, Options{})
	resp := getJSON(t, srv.URL+"/healthz", nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID assigned on /healthz")
	}

	body, err := json.Marshal(exampleBody(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-chosen-id")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if got := httpResp.Header.Get("X-Request-ID"); got != "caller-chosen-id" {
		t.Errorf("X-Request-ID = %q, want the caller's id", got)
	}
	var out CheckResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "caller-chosen-id" {
		t.Errorf("body requestId = %q, want the caller's id", out.RequestID)
	}
}

// TestCheckResponseCarriesStats: a successful /check reports per-family
// solver work and cache counters in its stats block.
func TestCheckResponseCarriesStats(t *testing.T) {
	srv, _, _ := obsServer(t, Options{CacheSize: 16})
	var out CheckResponse
	resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if out.Stats == nil {
		t.Fatal("/check response has no stats block")
	}
	for _, fam := range []string{"allocation", "syntactic", "semantic", "memreserve", "interrupt"} {
		if _, ok := out.Stats.Families[fam]; !ok {
			t.Errorf("stats block missing family %q: %+v", fam, out.Stats)
		}
	}
	if out.Stats.CacheHits+out.Stats.CacheMisses == 0 {
		t.Error("stats block reports no cache lookups although a cache is configured")
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and checks the
// expected families are present in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := obsServer(t, Options{CacheSize: 16})
	if resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	var text string
	eventually(t, "the /check request's latency sample", func() bool {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Content-Type = %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		text = string(raw)
		return strings.Contains(text, `endpoint="/check"`)
	})
	for _, family := range []string{
		"llhsc_service_request_seconds_bucket",
		"llhsc_service_requests_total",
		"llhsc_service_inflight_requests",
		"llhsc_sat_conflicts_total",
		"llhsc_sat_propagations_total",
		"llhsc_constraints_solver_calls_total",
		"llhsc_constraints_pairs_pruned_total",
		"llhsc_checkcache_hits_total",
		"llhsc_checkcache_misses_total",
		"llhsc_core_runs_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// metricValue extracts one sample value from a Prometheus text scrape.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			if _, err := fmt.Sscan(strings.TrimPrefix(line, sample+" "), &v); err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in scrape", sample)
	return 0
}

// TestHealthzAndMetricsAgreeOnCacheCounters: the cache counters behind
// /healthz and /metrics are the same instances, so the two views must
// report identical numbers.
func TestHealthzAndMetricsAgreeOnCacheCounters(t *testing.T) {
	srv, _, _ := obsServer(t, Options{CacheSize: 16})
	body := exampleBody(t, srv)
	for i := 0; i < 2; i++ { // second run hits the cache
		if resp := postJSON(t, srv.URL+"/check", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("/check status %d", resp.StatusCode)
		}
	}
	var health struct {
		CheckCache struct {
			Hits    float64 `json:"hits"`
			Misses  float64 `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"checkCache"`
	}
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	if health.CheckCache.Hits == 0 {
		t.Fatal("second identical /check produced no cache hits")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if got := metricValue(t, text, "llhsc_checkcache_hits_total"); got != health.CheckCache.Hits {
		t.Errorf("metrics hits = %v, healthz hits = %v", got, health.CheckCache.Hits)
	}
	if got := metricValue(t, text, "llhsc_checkcache_misses_total"); got != health.CheckCache.Misses {
		t.Errorf("metrics misses = %v, healthz misses = %v", got, health.CheckCache.Misses)
	}
	if got := metricValue(t, text, "llhsc_checkcache_hit_rate"); got != health.CheckCache.HitRate {
		t.Errorf("metrics hit_rate = %v, healthz hit_rate = %v", got, health.CheckCache.HitRate)
	}
}

// TestSuccessfulRequestLogged: a 2xx /check produces one info line with
// the request ID and per-phase durations covering the pipeline phases.
func TestSuccessfulRequestLogged(t *testing.T) {
	srv, _, buf := obsServer(t, Options{})
	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	line := logLineFor(t, buf, out.RequestID)
	if line["level"] != "info" || line["path"] != "/check" {
		t.Errorf("unexpected log line: %v", line)
	}
	phases, ok := line["phaseMs"].(map[string]interface{})
	if !ok {
		t.Fatalf("log line has no phaseMs object: %v", line)
	}
	for _, want := range []string{"allocation", "platform", "baogen"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phaseMs missing %q: %v", want, phases)
		}
	}
}

// TestNon2xxLogged exercises the error-taxonomy logging contract: each
// non-2xx answer emits exactly one error line with the request ID, the
// status, the phase reached and the taxonomy class.
func TestNon2xxLogged(t *testing.T) {
	srv, _, buf := obsServer(t, Options{MaxBodyBytes: 256})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for _, tc := range []struct {
		name       string
		do         func() *http.Response
		wantStatus int
		wantClass  string
		wantReason string
		wantPhase  string
	}{
		{
			name:       "bad json",
			do:         func() *http.Response { return post("{not json") },
			wantStatus: http.StatusBadRequest,
			wantClass:  "4xx",
			wantReason: "bad-request",
			wantPhase:  "decode",
		},
		{
			name: "body too large",
			do: func() *http.Response {
				return post(`{"coreDts":"` + strings.Repeat("x", 512) + `"}`)
			},
			wantStatus: http.StatusRequestEntityTooLarge,
			wantClass:  "4xx",
			wantReason: "body-too-large",
			wantPhase:  "decode",
		},
		{
			name: "unprocessable",
			do: func() *http.Response {
				return post(`{"coreDts":"not a dts","deltas":"d","featureModel":"f","vms":[["a"]]}`)
			},
			wantStatus: http.StatusUnprocessableEntity,
			wantClass:  "4xx",
			wantReason: "unprocessable",
			wantPhase:  "parse",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			id := resp.Header.Get("X-Request-ID")
			if id == "" {
				t.Fatal("response has no X-Request-ID")
			}
			line := logLineFor(t, buf, id)
			if line["level"] != "error" {
				t.Errorf("level = %v, want error", line["level"])
			}
			if int(line["status"].(float64)) != tc.wantStatus {
				t.Errorf("logged status = %v, want %d", line["status"], tc.wantStatus)
			}
			if line["class"] != tc.wantClass {
				t.Errorf("class = %v, want %s", line["class"], tc.wantClass)
			}
			if line["reason"] != tc.wantReason {
				t.Errorf("reason = %v, want %s", line["reason"], tc.wantReason)
			}
			if line["phase"] != tc.wantPhase {
				t.Errorf("phase = %v, want %s", line["phase"], tc.wantPhase)
			}
		})
	}
}

// TestHealthzJSONShapeUnchanged pins the byte-level /healthz document
// for a baseline deployment: evolving the internals (metrics registry,
// build stamping) must not silently change the externally observable
// JSON. The build block's values come from the binary itself, so the
// expectation folds them in from the same source.
func TestHealthzJSONShapeUnchanged(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{CacheSize: 8}))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	info := buildinfo.Get()
	want := fmt.Sprintf(`{
  "build": {
    "version": %q,
    "commit": %q,
    "date": %q,
    "go": %q
  },
  "checkCache": {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "entries": 0,
    "capacity": 8,
    "hit_rate": 0
  },
  "status": "ok"
}
`, info.Version, info.Commit, info.Date, info.GoVersion)
	if string(raw) != want {
		t.Errorf("/healthz JSON changed:\n got: %s\nwant: %s", raw, want)
	}
}
