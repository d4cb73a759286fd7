package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// slowReader delivers its payload in two halves with a pause between
// them, keeping a request in flight across a server shutdown.
type slowReader struct {
	data  []byte
	pos   int
	pause time.Duration
	slept bool
}

func (r *slowReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	half := len(r.data) / 2
	if r.pos >= half && !r.slept {
		r.slept = true
		time.Sleep(r.pause)
	}
	end := r.pos + 1024
	if r.pos < half && end > half {
		end = half
	}
	if end > len(r.data) {
		end = len(r.data)
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

func TestGracefulShutdownDrainsInFlightCheck(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-shutdown-grace", "5s"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// fetch the ready-made example request body
	resp, err := http.Get(base + "/example")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// start a /check whose body straddles the shutdown signal
	type result struct {
		status int
		ok     bool
		err    error
	}
	results := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, base+"/check",
			&slowReader{data: body, pause: 500 * time.Millisecond})
		if err != nil {
			results <- result{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out struct {
			OK bool `json:"ok"`
		}
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(bytes.TrimSpace(raw), &out)
		results <- result{status: resp.StatusCode, ok: out.OK}
	}()

	// let the request get in flight, then deliver the shutdown signal
	time.Sleep(150 * time.Millisecond)
	cancel()

	select {
	case res := <-results:
		if res.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", res.err)
		}
		if res.status != http.StatusOK || !res.ok {
			t.Fatalf("in-flight request: status=%d ok=%v, want 200/true", res.status, res.ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never exited after drain")
	}

	// new connections must be refused once the server is down
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// Overload shedding is retired, so -degrade names no mode at all: a
// deployment script that still passes it must fail at start-up rather
// than run believing it sheds.
func TestUnknownDegradeModeRejected(t *testing.T) {
	for _, mode := range []string{"off", "auto", "force"} {
		err := run(context.Background(), []string{"-addr", "127.0.0.1:-1", "-degrade", mode}, nil)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("-degrade %s: err = %v, want an undefined-flag error", mode, err)
		}
	}
}

// The persistent cache tier is gone; its flag must not be silently
// accepted by a deployment script that still passes it. The unusable
// -addr makes a regression fail fast instead of serving forever.
func TestCacheDirFlagRejected(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:-1", "-cache-dir", t.TempDir()}, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-cache-dir: err = %v, want an undefined-flag error", err)
	}
}
