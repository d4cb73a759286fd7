package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
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

// Overload shedding is retired: the benchmark module still sets
// Degrade to DegradeOff, so "" and "off" build a service, and every
// former shedding mode, like any misspelling, fails at construction
// instead of silently serving full checks to a caller that asked for
// shedding.
func TestUnknownDegradeModeRejectedByService(t *testing.T) {
	for _, tc := range []struct {
		mode string
		ok   bool
	}{
		{"", true},
		{DegradeOff, true},
		{"auto", false},
		{"force", false},
		{"bogus", false},
	} {
		_, err := NewService(Options{Degrade: tc.mode})
		if got := err == nil; got != tc.ok {
			t.Errorf("NewService(Degrade %q) error = %v, want accepted = %v", tc.mode, err, tc.ok)
		}
	}
}
