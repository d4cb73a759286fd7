package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"llhsc/internal/core"
)

// exampleRequest fetches the ready-made running-example request from a
// test server built on the given handler.
func exampleRequest(t *testing.T, srv *httptest.Server) CheckRequest {
	t.Helper()
	var req CheckRequest
	getJSON(t, srv.URL+"/example", &req)
	return req
}

func TestPanicIsolatedAsJSON500(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("/fine", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	srv := httptest.NewServer(recoverPanics(mux))
	defer srv.Close()

	var e errorResponse
	resp := getJSON(t, srv.URL+"/boom", &e)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want JSON", ct)
	}
	if !strings.Contains(e.Error, "kaboom") {
		t.Errorf("error = %q, should mention the panic", e.Error)
	}

	// the server must keep serving after the panic
	resp = getJSON(t, srv.URL+"/fine", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status = %d, want 200", resp.StatusCode)
	}
}

func TestBudgetExhaustionAnswers503(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{
		Limits: core.Limits{MaxDeltaOps: 1},
	}))
	defer srv.Close()

	start := time.Now()
	var e errorResponse
	resp := postJSON(t, srv.URL+"/check", exampleRequest(t, srv), &e)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("budget-limited check took %v, want bounded well under 2s", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body: %+v)", resp.StatusCode, e)
	}
	if e.Reason != "budget:delta-ops" {
		t.Errorf("reason = %q, want budget:delta-ops", e.Reason)
	}
	if e.RetryAfter <= 0 {
		t.Errorf("retryAfterSeconds = %d, want a positive hint", e.RetryAfter)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header on 503")
	}
}

func TestRequestTimeoutAnswers408(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{
		RequestTimeout: time.Nanosecond,
	}))
	defer srv.Close()

	// an expired request is a timeout in either mode, reported as the
	// context's error and never as a solver budget
	for _, mode := range []string{"enumerate", "lifted"} {
		req := exampleRequest(t, srv)
		req.Mode = mode
		var e errorResponse
		resp := postJSON(t, srv.URL+"/check", req, &e)
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("%s: status = %d, want 408 (body: %+v)", mode, resp.StatusCode, e)
		}
		if e.Reason != "request-timeout" {
			t.Errorf("%s: reason = %q, want request-timeout", mode, e.Reason)
		}
		if !strings.Contains(e.Error, context.DeadlineExceeded.Error()) || strings.Contains(e.Error, "sat:") {
			t.Errorf("%s: error = %q, want the context's deadline error and no solver stop", mode, e.Error)
		}
	}
}

// TestOverloadAnswers429 also pins the 429 reply byte for byte: NewService
// renders it once, and it must be what writeJSON writes for the
// errorResponse it stands for.
func TestOverloadAnswers429(t *testing.T) {
	svc, err := NewService(Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := svc.srv
	s.inflight <- struct{}{} // occupy the only slot

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/check", strings.NewReader("{}"))
	s.guard(s.handleCheck).ServeHTTP(rec, req)

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q on 429, want 1", got)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q on 429, want application/json", got)
	}
	const want = "{\n" +
		"  \"error\": \"too many requests in flight (limit 1)\",\n" +
		"  \"reason\": \"overloaded\",\n" +
		"  \"retryAfterSeconds\": 1\n" +
		"}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("429 body = %q, want %q", got, want)
	}
	envelope := httptest.NewRecorder()
	writeJSON(envelope, http.StatusTooManyRequests, errorResponse{
		Error: "too many requests in flight (limit 1)", Reason: "overloaded", RetryAfter: retryAfterSeconds,
	})
	if envelope.Body.String() != want {
		t.Errorf("writeJSON writes the overload envelope as %q, want %q", envelope.Body.String(), want)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if e.Reason != "overloaded" {
		t.Errorf("reason = %q, want overloaded", e.Reason)
	}

	// freeing the slot restores service
	<-s.inflight
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/check", strings.NewReader("{}"))
	s.guard(s.handleCheck).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest { // {} is missing every field
		t.Fatalf("status after slot freed = %d, want 400", rec.Code)
	}
}

// TestDeepNestingAnswers413 nests 80 levels, past the parser's default
// guard of 64.
func TestDeepNestingAnswers413(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	var b strings.Builder
	b.WriteString("/dts-v1/;\n/ {\n")
	for i := 0; i < 80; i++ {
		b.WriteString("n {\n")
	}
	for i := 0; i < 80; i++ {
		b.WriteString("};\n")
	}
	b.WriteString("};\n")

	var e errorResponse
	resp := postJSON(t, srv.URL+"/lint", LintRequest{DTS: b.String()}, &e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body: %+v)", resp.StatusCode, e)
	}
}

func TestOversizedBodyAnswers413(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{MaxBodyBytes: 256}))
	defer srv.Close()

	var e errorResponse
	resp := postJSON(t, srv.URL+"/lint",
		LintRequest{DTS: strings.Repeat("x", 1024)}, &e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body: %+v)", resp.StatusCode, e)
	}
	if e.Reason != "body-too-large" {
		t.Errorf("reason = %q, want body-too-large", e.Reason)
	}
}

func TestDefaultHandlerStillChecksExample(t *testing.T) {
	srv := newServer(t)
	var out CheckResponse
	resp := postJSON(t, srv.URL+"/check", exampleRequest(t, srv), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !out.OK {
		t.Errorf("example product line should check clean: %+v", out)
	}
}

// TestCheckBoundsShmemIDs sends the running example with veth1's shmem
// id changed, in both modes. Bao's .shmem_id indexes the shmemlist, so
// an id past the IPC windows the product line declares, or one id
// naming windows of two sizes, answers 422 naming the VM and the id;
// and a large id costs no more than the example's own id = <1> does,
// where before the list grew to the id.
func TestCheckBoundsShmemIDs(t *testing.T) {
	h := NewHandler(Options{})
	body := func(mode, id, size string) []byte {
		req := runningExampleRequest(t)
		req.Mode = mode
		req.Deltas = strings.Replace(req.Deltas, "reg = <0x70000000 0x10000000>;\n            id = <1>;",
			"reg = <0x70000000 "+size+">;\n            id = <"+id+">;", 1)
		return marshalBody(t, req)
	}
	// bytesPerCheck sends b once to fill the front-end memo, then
	// measures the bytes one more /check of it allocates.
	bytesPerCheck := func(b []byte) (int, []byte, uint64) {
		postCheck(t, h, b)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			postCheck(t, h, b)
		}
		runtime.ReadMemStats(&after)
		status, reply := postCheck(t, h, b)
		return status, reply, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, mode := range []string{"enumerate", "lifted"} {
		status, reply, example := bytesPerCheck(body(mode, "1", "0x10000000"))
		if status != http.StatusOK || !strings.Contains(string(reply), `"ok": true`) {
			t.Fatalf("%s, id = <1>: %d %s", mode, status, reply)
		}
		for _, c := range []struct{ id, size, want string }{
			{"100000", "0x10000000", "VM vm2 has IPC shmem id 100000, not below 2"},
			{"0xffffffff", "0x10000000", "VM vm2 has IPC shmem id 4294967295, not below 2"},
			{"0", "0x8000000", "VM vm2 has IPC shmem id 0 of 0x8000000 bytes, where an earlier window has 0x10000000"},
		} {
			status, reply, allocated := bytesPerCheck(body(mode, c.id, c.size))
			if status != http.StatusUnprocessableEntity || !strings.Contains(string(reply), c.want) {
				t.Errorf("%s, id = <%s>, size %s: %d %s; want 422 naming %q", mode, c.id, c.size, status, reply, c.want)
			}
			if allocated > example {
				t.Errorf("%s, id = <%s>: a /check allocated %d bytes, more than the %d of id = <1>", mode, c.id, allocated, example)
			}
		}
		// One id may name one object from two VMs when they agree on its size.
		status, reply = postCheck(t, h, body(mode, "0", "0x10000000"))
		if status != http.StatusOK || !strings.Contains(string(reply), ".shmemlist_size = 1,") {
			t.Errorf("%s, both windows on shmem 0: %d %s", mode, status, reply)
		}
	}
}
