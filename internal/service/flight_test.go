// Tests for the deep-diagnostics surface of the service: the
// /debug/flight endpoint, crash dumps triggered by panics and budget
// exhaustion, and the opt-in per-request trace block on /check.
package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"llhsc/internal/core"
	"llhsc/internal/obs"
)

// flightDoc is the JSON document /debug/flight and crash dumps share.
type flightDoc struct {
	Reason   string             `json:"reason,omitempty"`
	Capacity int                `json:"capacity"`
	Recorded uint64             `json:"recorded"`
	Records  []obs.FlightRecord `json:"records"`
}

func getFlight(t *testing.T, srv *httptest.Server) flightDoc {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight status = %d, want 200", resp.StatusCode)
	}
	var doc flightDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/flight body is not JSON: %v", err)
	}
	return doc
}

// TestDebugFlightServesRecentRequests: after a mix of successful checks
// and a budget-limited one, /debug/flight returns the recent records in
// order, with the taxonomy outcome, mode, cache tier and per-phase
// millis filled in.
func TestDebugFlightServesRecentRequests(t *testing.T) {
	srv, _, _ := obsServer(t, Options{
		CacheSize:  8,
		FlightSize: 8,
	})
	body := exampleBody(t, srv)
	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}

	// The record is filed after the handler returns (see eventually),
	// so wait for the one carrying this request's ID.
	var rec obs.FlightRecord
	eventually(t, "the flight record of request "+out.RequestID, func() bool {
		doc := getFlight(t, srv)
		if doc.Capacity != 8 {
			t.Fatalf("capacity = %d, want 8", doc.Capacity)
		}
		for _, r := range doc.Records {
			if r.RequestID == out.RequestID {
				rec = r
				return true
			}
		}
		return false
	})
	if rec.Path != "/check" || rec.Status != http.StatusOK || rec.Outcome != "ok" {
		t.Errorf("record = %+v, want /check 200 ok", rec)
	}
	if rec.Mode == "" {
		t.Errorf("record missing mode: %+v", rec)
	}
	if rec.CacheTier == "" {
		t.Errorf("record missing cache tier: %+v", rec)
	}
	if len(rec.PhaseMs) == 0 {
		t.Errorf("record has no per-phase millis: %+v", rec)
	}
	if rec.Span == nil || len(rec.Span.Children) == 0 {
		t.Errorf("record has no span tree: %+v", rec.Span)
	}
}

// TestDebugFlightRecordsLimitError: a budget-exhausted /check still
// lands in the ring, tagged with its budget taxonomy reason and
// carrying the run's stats up to the stop, in both checking modes.
func TestDebugFlightRecordsLimitError(t *testing.T) {
	for _, mode := range []string{"enumerate", "lifted"} {
		t.Run(mode, func(t *testing.T) {
			srv, _, _ := obsServer(t, Options{
				FlightSize: 4,
				Limits:     core.Limits{MaxDeltaOps: 1},
			})
			req := exampleBody(t, srv)
			req.Mode = mode
			resp := postJSON(t, srv.URL+"/check", req, nil)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("/check status = %d, want 503", resp.StatusCode)
			}

			doc := getFlight(t, srv)
			var limited *obs.FlightRecord
			for i := range doc.Records {
				if doc.Records[i].Path == "/check" && doc.Records[i].Status == http.StatusServiceUnavailable {
					limited = &doc.Records[i]
				}
			}
			if limited == nil {
				t.Fatalf("no 503 /check record in ring: %+v", doc.Records)
			}
			if limited.Outcome != "budget:delta-ops" {
				t.Errorf("outcome = %q, want budget:delta-ops", limited.Outcome)
			}
			stats, _ := limited.Stats.(map[string]any)
			families, _ := stats["families"].(map[string]any)
			allocation, _ := families["allocation"].(map[string]any)
			if checks, _ := allocation["checks"].(float64); checks != 1 {
				t.Errorf("stats = %v, want families.allocation.checks = 1", limited.Stats)
			}
		})
	}
}

// TestFlightDumpOnBudgetExhaustion: exhausting a budget auto-dumps the
// ring to the configured path, and the dump contains the triggering
// request's own record.
func TestFlightDumpOnBudgetExhaustion(t *testing.T) {
	dumpPath := filepath.Join(t.TempDir(), "flight.json")
	srv, _, _ := obsServer(t, Options{
		FlightSize:     4,
		FlightDumpPath: dumpPath,
		Limits:         core.Limits{MaxDeltaOps: 1},
	})
	if resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/check status = %d, want 503", resp.StatusCode)
	}
	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("no crash dump written: %v", err)
	}
	var doc flightDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if doc.Reason != "budget:delta-ops" {
		t.Errorf("dump reason = %q, want budget:delta-ops", doc.Reason)
	}
	found := false
	for _, rec := range doc.Records {
		if rec.Outcome == "budget:delta-ops" {
			found = true
		}
	}
	if !found {
		t.Errorf("dump lacks the triggering request's record: %+v", doc.Records)
	}
}

// TestFlightDumpOnPanic: an injected panic in the check pipeline is
// recovered into a JSON 500 and the flight ring is dumped with reason
// "panic", the dumped record carrying the failing request.
func TestFlightDumpOnPanic(t *testing.T) {
	dumpPath := filepath.Join(t.TempDir(), "flight.json")
	srv, _, _ := obsServer(t, Options{
		FlightSize:     4,
		FlightDumpPath: dumpPath,
	})
	var crash atomic.Bool
	crash.Store(true)
	srv.Config.Handler.(*Service).srv.beforeCheck = func() {
		if crash.Load() {
			panic("injected crash")
		}
	}

	var e errorResponse
	resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), &e)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/check status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "injected crash") {
		t.Errorf("error = %q, should mention the injected panic", e.Error)
	}

	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("no crash dump written after panic: %v", err)
	}
	var doc flightDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if doc.Reason != "panic" {
		t.Errorf("dump reason = %q, want panic", doc.Reason)
	}
	if len(doc.Records) == 0 {
		t.Fatal("dump has no records")
	}
	last := doc.Records[len(doc.Records)-1]
	if last.Outcome != "panic" || last.Status != http.StatusInternalServerError {
		t.Errorf("dumped record = %+v, want outcome panic status 500", last)
	}

	// The server must keep serving, and later requests must not dump.
	crash.Store(false)
	if resp := postJSON(t, srv.URL+"/check", exampleBody(t, srv), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status = %d, want 200", resp.StatusCode)
	}
}

// TestDebugFlightAbsentWhenDisabled: without FlightSize the endpoint
// must not exist — no accidental always-on debug surface.
func TestDebugFlightAbsentWhenDisabled(t *testing.T) {
	srv, _, _ := obsServer(t, Options{})
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/flight status = %d, want 404 when disabled", resp.StatusCode)
	}
}

// TestCheckTraceOptIn: a /check with "trace": true returns the span
// tree of its own execution; without the flag no trace block appears.
func TestCheckTraceOptIn(t *testing.T) {
	srv, _, _ := obsServer(t, Options{CacheSize: 8})
	body := exampleBody(t, srv)

	var plain CheckResponse
	if resp := postJSON(t, srv.URL+"/check", body, &plain); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if plain.Trace != nil {
		t.Errorf("trace block present without opt-in: %+v", plain.Trace)
	}

	body.Trace = true
	var traced CheckResponse
	if resp := postJSON(t, srv.URL+"/check", body, &traced); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if traced.Trace == nil {
		t.Fatal("no trace block despite \"trace\": true")
	}
	if len(traced.Trace.Children) == 0 {
		t.Errorf("trace has no child spans: %+v", traced.Trace)
	}
	if traced.Trace.Millis < 0 {
		t.Errorf("trace root duration = %v, want >= 0", traced.Trace.Millis)
	}
}

// TestCheckTraceWithoutServerSpan: trace opt-in must work even on a
// bare handler with neither logging nor flight recording enabled,
// where runCheck creates its own local root span.
func TestCheckTraceWithoutServerSpan(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	t.Cleanup(srv.Close)
	req := exampleRequest(t, srv)
	req.Trace = true
	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if out.Trace == nil || len(out.Trace.Children) == 0 {
		t.Fatalf("bare-handler trace = %+v, want a populated span tree", out.Trace)
	}
}
