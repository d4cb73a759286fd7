// Tests for the request's observability output: the log line written
// without reflection, the flight record that keeps the finished span
// tree, what an observed /check allocates, and span trees built while
// the flight ring is read.
package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"llhsc/internal/core"
	"llhsc/internal/obs"
)

// marshalledLogLine is the struct the request log line was marshalled
// from by encoding/json; json.Marshal of it is the oracle appendJSON is
// held to.
type marshalledLogLine struct {
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

// marshalLogLine is what json.Marshal wrote for l, newline included.
func marshalLogLine(t testing.TB, l *logLine) string {
	t.Helper()
	m := marshalledLogLine{
		Time: l.Time.UTC().Format(time.RFC3339Nano), Level: l.Level, RequestID: l.RequestID,
		Method: l.Method, Path: l.Path, Status: l.Status, Class: l.Class,
		DurationMs: l.DurationMs, Phase: l.Phase, Reason: l.Reason,
	}
	for _, p := range l.PhaseMs {
		if m.PhaseMs == nil {
			m.PhaseMs = map[string]float64{}
		}
		m.PhaseMs[p.Name] += p.Millis
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// awkward are strings every JSON writer has to get right: escapes,
// control bytes, HTML-sensitive bytes, invalid UTF-8 and the two
// separators encoding/json escapes.
var awkward = []string{
	"", "plain", "a\"b\\c", "\n\r\t\b\f", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"\xff", "ok\xfe\xffok", "\xe2\x80", "\u2028\u2029", "é日本🙂", "/check?x=1&y=<2>",
}

// TestRequestLogLineMatchesMarshal: appendJSON writes every field,
// optional or not, as json.Marshal wrote the struct the line was
// marshalled from, over awkward strings, every float form encoding/json
// picks (fixed, and exponent below 1e-6 ms and from 1e21 ms) and times
// in other zones.
func TestRequestLogLineMatchesMarshal(t *testing.T) {
	floats := []float64{0, 5e-324, 1e-7, 9.99999e-7, 1e-6, 0.000123, 0.5, 1, 123.456789,
		1e20, 999999999999999900000, 1e21, 1.5e300, math.MaxFloat64, -1e-7, -2.5}
	times := []time.Time{
		time.Unix(0, 0),
		time.Date(2026, 10, 19, 15, 21, 24, 123456789, time.UTC),
		time.Date(2026, 10, 19, 15, 21, 24, 120000000, time.FixedZone("X", -7*3600)),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	line := func(i int) logLine {
		s := awkward[i%len(awkward)]
		l := logLine{
			Time: times[i%len(times)], Level: "info", RequestID: s, Method: "POST",
			Path: awkward[(i+3)%len(awkward)], Status: 200 + i, Class: "2xx",
			DurationMs: floats[i%len(floats)],
		}
		if i%2 == 1 {
			l.Level, l.Phase, l.Reason = "error", awkward[(i+5)%len(awkward)], awkward[(i+7)%len(awkward)]
		}
		if i%3 != 0 {
			// Distinct names in byte order, as AppendPhases gives them.
			l.PhaseMs = []obs.Phase{
				{Name: "allocation", Millis: floats[(i+1)%len(floats)]},
				{Name: "vm:" + s, Millis: floats[(i+2)%len(floats)]},
			}
		}
		return l
	}
	for i := 0; i < 3*len(awkward)*len(floats); i++ {
		l := line(i)
		got, want := string(l.appendJSON(nil)), marshalLogLine(t, &l)
		if got != want {
			t.Fatalf("line %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// FuzzRequestLogLine holds appendJSON to json.Marshal on arbitrary
// strings, durations and times, with phaseMs from a real span tree
// whose children may repeat a name.
func FuzzRequestLogLine(f *testing.F) {
	for i, s := range awkward {
		f.Add(s, "POST", "/check", s, "budget:conflicts", 503, 1e-7*float64(i), int64(i)*1e15, s, "vm:vm1")
	}
	f.Add("id", "GET", "/lint", "", "", 200, 1e22, int64(-1), "a", "a")
	f.Fuzz(func(t *testing.T, id, method, path, phase, reason string, status int,
		durMs float64, unixNano int64, name1, name2 string) {
		if math.IsNaN(durMs) || math.IsInf(durMs, 0) {
			t.Skip("a duration is finite")
		}
		root := obs.NewSpan("request")
		for _, name := range []string{name1, name2, name1} {
			root.StartChild(name).End()
		}
		root.End()
		var buf [16]obs.Phase
		l := logLine{
			Time: time.Unix(0, unixNano), Level: "error", RequestID: id, Method: method,
			Path: path, Status: status, Class: statusClass(status), DurationMs: durMs,
			Phase: phase, Reason: reason, PhaseMs: root.AppendPhases(buf[:0]),
		}
		want := marshalLogLine(t, &l)
		// The oracle reads the phases from the tree itself.
		var m marshalledLogLine
		if err := json.Unmarshal([]byte(want), &m); err != nil {
			t.Fatal(err)
		}
		sums := map[string]float64{}
		for _, c := range root.Snapshot().Children {
			sums[c.Name] += c.Millis
		}
		if len(sums) != len(l.PhaseMs) {
			t.Fatalf("%d phases for %d names", len(l.PhaseMs), len(sums))
		}
		if got := string(l.appendJSON(nil)); got != want {
			t.Fatalf("\n got %q\nwant %q", got, want)
		}
	})
}

// parentShapeFlightDoc renders the first recorded of fr's records as
// the flight document was written when each record held a snapshot of
// its span tree and a map of its phase sums, under the given reason and
// time. Requests filed after the document was written are left out.
func parentShapeFlightDoc(t *testing.T, fr *obs.FlightRecorder, reason, at string, recorded uint64) string {
	t.Helper()
	recs := fr.Snapshot()
	for len(recs) > 0 && recs[len(recs)-1].Seq >= recorded {
		recs = recs[:len(recs)-1]
	}
	for i := range recs {
		r := &recs[i]
		r.Span, r.PhaseMs = nil, nil
		if r.Tree == nil {
			continue
		}
		sn := r.Tree.Snapshot()
		r.Span = &sn
		for _, c := range sn.Children {
			if r.PhaseMs == nil {
				r.PhaseMs = map[string]float64{}
			}
			r.PhaseMs[c.Name] += c.Millis
		}
	}
	doc := struct {
		Reason   string             `json:"reason,omitempty"`
		Time     string             `json:"time"`
		Capacity int                `json:"capacity"`
		Recorded uint64             `json:"recorded"`
		Records  []obs.FlightRecord `json:"records"`
	}{reason, at, fr.Capacity(), recorded, recs}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// docHeader reads the time and the record count of a flight document.
func docHeader(t *testing.T, doc []byte) (string, uint64) {
	t.Helper()
	var d struct {
		Time     string
		Recorded uint64
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("flight document is not JSON: %v", err)
	}
	return d.Time, d.Recorded
}

// TestFlightJSONMatchesParentShape: /debug/flight and a crash dump,
// which render each record's span tree when they serialize it, write
// the bytes the service wrote when every record held a snapshot of its
// tree and a map of its phases: for passing, failing and /lint requests.
func TestFlightJSONMatchesParentShape(t *testing.T) {
	srv, _, _ := obsServer(t, Options{FlightSize: 8, Limits: core.Limits{Parallelism: 2}})
	fr := srv.Config.Handler.(*Service).FlightRecorder()
	body := runningExampleRequest(t)
	for i := 0; i < 2; i++ {
		if resp := postJSON(t, srv.URL+"/check", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("/check status %d", resp.StatusCode)
		}
	}
	postJSON(t, srv.URL+"/lint", LintRequest{DTS: lintWithFindings, Semantic: true}, nil)
	resp, err := http.Post(srv.URL+"/check", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	eventually(t, "four flight records", func() bool { return fr.Total() == 4 })
	resp, err = http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	at, recorded := docHeader(t, got)
	if recorded != 4 {
		t.Fatalf("/debug/flight recorded %d requests, want 4", recorded)
	}
	if want := parentShapeFlightDoc(t, fr, "", at, recorded); string(got) != want {
		t.Errorf("/debug/flight:\n got %s\nwant %s", got, want)
	}

	dumpPath := filepath.Join(t.TempDir(), "flight.json")
	srv, _, _ = obsServer(t, Options{FlightSize: 4, FlightDumpPath: dumpPath, Limits: core.Limits{MaxDeltaOps: 1}})
	fr = srv.Config.Handler.(*Service).FlightRecorder()
	if resp := postJSON(t, srv.URL+"/check", body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/check status %d, want 503", resp.StatusCode)
	}
	// The dump is written after the reply; wait until it is whole.
	eventually(t, "the budget stop's dump", func() bool {
		got, err = os.ReadFile(dumpPath)
		return err == nil && json.Valid(got)
	})
	at, recorded = docHeader(t, got)
	if want := parentShapeFlightDoc(t, fr, "budget:delta-ops", at, recorded); string(got) != want {
		t.Errorf("dump:\n got %s\nwant %s", got, want)
	}
}

// TestObservedCheckAllocs gates a warm passing /check of the running
// example through the whole handler with every observability surface
// on, as llhsc-server runs by default and the benchmark serves it: a
// Registry, a request log (io.Discard; the line is still built and
// written) and a 64-record flight ring. The request's span tree costs
// five allocations (TestSpanArenaAllocs), the log line none, and the
// flight record keeps the tree instead of a copy. It measured 508
// allocations and ~39.3 KB; with a span per allocation, attributes
// formatted when set, a snapshot and a phase map per request, the log
// line marshalled by reflection and the run stats copied twice, 642
// and ~45.9 KB.
func TestObservedCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	h := NewHandler(Options{
		Registry:   obs.NewRegistry(),
		LogWriter:  io.Discard,
		FlightSize: obs.DefaultFlightCapacity,
		Limits:     core.Limits{Parallelism: 2},
	})
	body := marshalBody(t, runningExampleRequest(t))
	w := discardWriter{h: http.Header{}}
	serve := func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
	}
	for i := 0; i < obs.DefaultFlightCapacity; i++ {
		serve() // fill the ring, so records evict as they do in service
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("observed warm /check of the running example: %.0f allocations, %.0f bytes", allocs, bytesPerReq)
	const allocBudget, byteBudget = 515, 40000
	if allocs > allocBudget {
		t.Errorf("%.0f allocations per request, budget %d", allocs, allocBudget)
	}
	if bytesPerReq > byteBudget {
		t.Errorf("%.0f bytes per request, budget %d", bytesPerReq, byteBudget)
	}
}

// TestFlightReadsWhileProductsTrace: product workers of new requests
// add spans to their trees while /debug/flight and trace replies read
// trees, finished and running — run with -race.
func TestFlightReadsWhileProductsTrace(t *testing.T) {
	srv, _, _ := obsServer(t, Options{FlightSize: 4, Limits: core.Limits{Parallelism: 4}})
	req := exampleBody(t, srv)
	traced := req
	traced.Trace = true
	bodies := [][]byte{marshalBody(t, req), marshalBody(t, traced)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/debug/flight")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
			}
		}()
	}
	var checks sync.WaitGroup
	for i := 0; i < 2; i++ {
		checks.Add(1)
		go func(i int) {
			defer checks.Done()
			for j := 0; j < 15; j++ {
				resp, err := http.Post(srv.URL+"/check", "application/json", bytes.NewReader(bodies[(i+j)%2]))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/check status %d", resp.StatusCode)
				}
			}
		}(i)
	}
	checks.Wait()
	close(stop)
	wg.Wait()
	// The readers' own requests land in the ring too; every record
	// still carries its tree.
	doc := getFlight(t, srv)
	if len(doc.Records) != 4 {
		t.Fatalf("flight ring holds %d records, want 4", len(doc.Records))
	}
	for _, rec := range doc.Records {
		if rec.Span == nil || rec.Span.Name != "request" {
			t.Errorf("record without its span tree: %+v", rec)
		}
	}
}
