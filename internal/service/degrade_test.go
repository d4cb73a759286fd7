package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newService spins up a Service-backed test server so tests can reach
// the operational controls (draining).
func newService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return svc, srv
}

func TestDrainingAnswers503WithRetryAfter(t *testing.T) {
	svc, srv := newService(t, Options{CacheSize: 4})
	req := exampleRequest(t, srv)

	svc.SetDraining(true)
	var errResp errorResponse
	resp := postJSON(t, srv.URL+"/check", req, &errResp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /check status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if errResp.Reason != "draining" || errResp.RetryAfter == 0 {
		t.Fatalf("draining error envelope = %+v", errResp)
	}
	// /lint drains too; /healthz keeps answering (the LB needs it).
	if resp := postJSON(t, srv.URL+"/lint", LintRequest{DTS: "/ { };"}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /lint status = %d, want 503", resp.StatusCode)
	}
	var health map[string]interface{}
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz status = %d", resp.StatusCode)
	}
	if health["status"] != "draining" || health["draining"] != true {
		t.Fatalf("draining health = %v", health)
	}

	// The switch is reversible: a cancelled shutdown resumes serving.
	svc.SetDraining(false)
	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain /check status = %d", resp.StatusCode)
	}
	if !out.OK {
		t.Fatal("post-drain check did not pass")
	}
}

func TestForcedDegradeShedsToLintOnly(t *testing.T) {
	_, srv := newService(t, Options{CacheSize: 4, Degrade: DegradeForce})
	req := exampleRequest(t, srv)
	var out CheckResponse
	resp := postJSON(t, srv.URL+"/check", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status = %d", resp.StatusCode)
	}
	if out.Degraded != "lint-only" {
		t.Fatalf("degraded marker = %q, want lint-only", out.Degraded)
	}
	if resp.Header.Get("X-Llhsc-Degraded") != "lint-only" {
		t.Fatal("X-Llhsc-Degraded header missing")
	}
	// The solver-heavy families never ran: only syntactic stats exist.
	if out.Stats == nil {
		t.Fatal("no stats in response")
	}
	for name := range out.Stats.Families {
		switch name {
		case "syntactic", "allocation":
		default:
			t.Fatalf("lint-only run executed family %q", name)
		}
	}
	var health map[string]interface{}
	getJSON(t, srv.URL+"/healthz", &health)
	deg, ok := health["degrade"].(map[string]interface{})
	if !ok {
		t.Fatalf("healthz missing degrade section: %v", health)
	}
	if deg["mode"] != "force" || deg["active"] != true || deg["shed_requests"].(float64) < 1 {
		t.Fatalf("degrade health = %v", deg)
	}
}

func TestDegradeAbsentFromHealthWhenOff(t *testing.T) {
	_, srv := newService(t, Options{CacheSize: 4})
	var health map[string]interface{}
	getJSON(t, srv.URL+"/healthz", &health)
	for _, field := range []string{"degrade", "draining"} {
		if _, ok := health[field]; ok {
			t.Fatalf("healthz leaks %q with the feature off: %v", field, health)
		}
	}
}

// The controller's dwell/hysteresis state machine, with a hand-driven
// clock: saturation must persist before shedding starts, recovery
// requires a sustained calm period, and the middle band holds state.
func TestAutoDegradeDwellAndHysteresis(t *testing.T) {
	d, err := newDegradeController(DegradeAuto, 2*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	d.now = func() time.Time { return now }
	tick := func(inflight int, dt time.Duration) {
		now = now.Add(dt)
		d.observe(inflight, 10)
	}

	tick(10, 0) // saturated, streak starts
	tick(10, time.Second)
	if d.peek() {
		t.Fatal("degraded before the enter dwell elapsed")
	}
	tick(3, time.Second) // blip: streak resets
	tick(10, time.Second)
	tick(10, time.Second)
	if d.peek() {
		t.Fatal("saturation streak survived a calm blip")
	}
	tick(10, time.Second) // 2s continuous saturation reached
	if !d.peek() {
		t.Fatal("sustained saturation did not engage shedding")
	}
	if !d.active() {
		t.Fatal("active() disagrees with peek()")
	}

	// Middle band (above half capacity, below full): shedding holds.
	tick(7, time.Second)
	tick(7, 10*time.Second)
	if !d.peek() {
		t.Fatal("middle-band occupancy ended shedding without a calm dwell")
	}

	// Calm begins, but a saturation spike resets the streak; recovery
	// needs a full exit dwell of uninterrupted calm after it.
	tick(2, time.Second)
	tick(2, 3*time.Second)
	tick(10, time.Second) // spike: calm streak back to zero
	tick(2, time.Second)
	tick(2, 3*time.Second) // 4s calm since the spike — not enough
	if !d.peek() {
		t.Fatal("recovered although calm was interrupted by a spike")
	}
	tick(2, 2*time.Second) // 6s calm: exit dwell satisfied
	if d.peek() {
		t.Fatal("sustained calm did not end shedding")
	}
	st := d.stats()
	if st.Mode != "auto" || st.Entries != 1 {
		t.Fatalf("controller stats = %+v", st)
	}
}

func TestAutoDegradeNeverEngagesWithoutSemaphore(t *testing.T) {
	d, err := newDegradeController(DegradeAuto, time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	d.now = func() time.Time { return now }
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		d.observe(50, 0) // MaxInFlight unset: no saturation signal
	}
	if d.peek() {
		t.Fatal("auto mode engaged with no in-flight bound configured")
	}
}

// A library caller's misspelt mode must fail at construction, not
// silently turn on shedding.
func TestUnknownDegradeModeRejectedByService(t *testing.T) {
	for _, mode := range []string{"bogus", "Auto", "on"} {
		if _, err := NewService(Options{Degrade: mode}); err == nil {
			t.Errorf("NewService accepted Degrade %q", mode)
		}
	}
	for _, mode := range []string{"", DegradeOff, DegradeAuto, DegradeForce} {
		if _, err := NewService(Options{Degrade: mode}); err != nil {
			t.Errorf("NewService rejected Degrade %q: %v", mode, err)
		}
	}
}
