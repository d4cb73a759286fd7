package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderWraparound(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record(FlightRecord{RequestID: fmt.Sprintf("req-%d", i)})
	}
	if got := fr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	snap := fr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot length = %d, want capacity 4", len(snap))
	}
	// Oldest-first: the ring must hold exactly the last four records in
	// arrival order.
	for i, rec := range snap {
		wantSeq := uint64(6 + i)
		if rec.Seq != wantSeq {
			t.Errorf("snap[%d].Seq = %d, want %d", i, rec.Seq, wantSeq)
		}
		if want := fmt.Sprintf("req-%d", 6+i); rec.RequestID != want {
			t.Errorf("snap[%d].RequestID = %q, want %q", i, rec.RequestID, want)
		}
		if rec.Time == "" {
			t.Errorf("snap[%d].Time not filled in", i)
		}
	}
}

func TestFlightRecorderBelowCapacity(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Record(FlightRecord{RequestID: "a"})
	fr.Record(FlightRecord{RequestID: "b"})
	snap := fr.Snapshot()
	if len(snap) != 2 || snap[0].RequestID != "a" || snap[1].RequestID != "b" {
		t.Fatalf("Snapshot = %+v, want [a b]", snap)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	if seq := fr.Record(FlightRecord{}); seq != 0 {
		t.Errorf("nil Record = %d, want 0", seq)
	}
	if fr.Snapshot() != nil || fr.Total() != 0 || fr.Capacity() != 0 {
		t.Error("nil recorder must report empty state")
	}
	if path, err := fr.Dump("x", "anywhere"); path != "" || err != nil {
		t.Errorf("nil Dump = (%q, %v), want no-op", path, err)
	}
	fr.SetDumpPath("anywhere") // must not panic
}

// TestFlightRecorderConcurrent hammers the ring from many goroutines;
// run under -race this pins the locking discipline, and the final
// state must account for every write.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(16)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fr.Record(FlightRecord{RequestID: fmt.Sprintf("w%d-%d", w, i)})
				if i%10 == 0 {
					fr.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fr.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	snap := fr.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot length = %d, want 16", len(snap))
	}
	// Sequence numbers must be the final 16, strictly increasing.
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot not in sequence order: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
	if snap[len(snap)-1].Seq != writers*perWriter-1 {
		t.Errorf("last Seq = %d, want %d", snap[len(snap)-1].Seq, writers*perWriter-1)
	}
}

func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	fr := NewFlightRecorder(4)
	fr.SetDumpPath(path)
	fr.Record(FlightRecord{RequestID: "r1", Outcome: "ok"})
	got, err := fr.Dump("panic", "")
	if err != nil {
		t.Fatal(err)
	}
	if got != path {
		t.Fatalf("Dump path = %q, want %q", got, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason   string         `json:"reason"`
		Capacity int            `json:"capacity"`
		Recorded uint64         `json:"recorded"`
		Records  []FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.Reason != "panic" || doc.Capacity != 4 || doc.Recorded != 1 || len(doc.Records) != 1 {
		t.Errorf("dump doc = %+v, want reason=panic capacity=4 recorded=1 1 record", doc)
	}
	if doc.Records[0].RequestID != "r1" {
		t.Errorf("dumped record = %+v, want RequestID r1", doc.Records[0])
	}
}

func TestFlightRecorderDumpNoPathConfigured(t *testing.T) {
	fr := NewFlightRecorder(2)
	if path, err := fr.Dump("reason", ""); path != "" || err != nil {
		t.Fatalf("Dump without a path = (%q, %v), want no-op", path, err)
	}
}

func TestFlightHandlerServesRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.Record(FlightRecord{RequestID: "abc", Outcome: "ok"})
	req := httptest.NewRequest(http.MethodGet, "/debug/flight", nil)
	rec := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var doc struct {
		Records []FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("handler body is not valid JSON: %v", err)
	}
	if len(doc.Records) != 1 || doc.Records[0].RequestID != "abc" {
		t.Errorf("records = %+v, want one record abc", doc.Records)
	}

	post := httptest.NewRequest(http.MethodPost, "/debug/flight", nil)
	rec = httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, post)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

func TestLoopbackOnly(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	for _, tc := range []struct {
		remote string
		want   int
	}{
		{"127.0.0.1:5555", http.StatusOK},
		{"[::1]:5555", http.StatusOK},
		{"10.0.0.7:5555", http.StatusForbidden},
		{"garbage", http.StatusForbidden},
	} {
		req := httptest.NewRequest(http.MethodGet, "/debug/flight", nil)
		req.RemoteAddr = tc.remote
		rec := httptest.NewRecorder()
		LoopbackOnly(ok).ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("remote %q: status = %d, want %d", tc.remote, rec.Code, tc.want)
		}
	}
}

// TestFlightRecordOfTreeMatchesSnapshotShape: a record that keeps its
// finished span tree serializes byte for byte as a record that was
// handed a snapshot of the tree and the per-name sums of its direct
// children, the shape records had before they kept trees — both in the
// ring as Snapshot returns it and in the JSON document WriteJSON and
// Dump write.
func TestFlightRecordOfTreeMatchesSnapshotShape(t *testing.T) {
	root := NewSpan("request")
	root.SetAttr("mode", "enumerate")
	for _, name := range []string{"allocation", "vm:vm1", "vm:vm1", "platform", "<&> "} {
		c := root.StartChild(name)
		c.SetInt("n", 7)
		c.StartChild("family:semantic").End()
		c.End()
	}
	root.End()
	bare := NewSpan("request") // a request no phase ran for: no phaseMs
	bare.End()

	base := FlightRecord{Time: "2026-01-02T03:04:05.06Z", RequestID: "id", Method: "POST",
		Path: "/check", Status: 200, Mode: "enumerate", CacheTier: "none", Outcome: "ok",
		DurationMs: 1.5, Stats: map[string]int{"cacheHits": 0}}
	trees, snaps := NewFlightRecorder(4), NewFlightRecorder(4)
	for _, tree := range []*Span{root, bare} {
		rec := base
		rec.Tree = tree
		trees.Record(rec)

		rec = base
		sn := tree.Snapshot()
		rec.Span = &sn
		for _, c := range sn.Children {
			if rec.PhaseMs == nil {
				rec.PhaseMs = map[string]float64{}
			}
			rec.PhaseMs[c.Name] += c.Millis
		}
		snaps.Record(rec)
	}

	got, want := trees.Snapshot(), snaps.Snapshot()
	for i := range got {
		got[i].Tree = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ring snapshot:\n got %+v\nwant %+v", got, want)
	}
	now := time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC)
	var gotDoc, wantDoc bytes.Buffer
	if err := trees.writeJSON(&gotDoc, "panic", now); err != nil {
		t.Fatal(err)
	}
	if err := snaps.writeJSON(&wantDoc, "panic", now); err != nil {
		t.Fatal(err)
	}
	if gotDoc.String() != wantDoc.String() {
		t.Errorf("flight document:\n got %s\nwant %s", gotDoc.String(), wantDoc.String())
	}
	if !strings.Contains(gotDoc.String(), `"phaseMs": {`) || !strings.Contains(gotDoc.String(), `"vm:vm1": `) {
		t.Errorf("flight document lacks the phase sums:\n%s", gotDoc.String())
	}
}
