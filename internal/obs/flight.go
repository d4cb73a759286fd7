package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// DefaultFlightCapacity is the ring size used when NewFlightRecorder is
// given a non-positive capacity.
const DefaultFlightCapacity = 64

// FlightRecord is one completed request as the flight recorder keeps
// it: enough to reconstruct what the service was doing in the moments
// before a crash without holding the request body or the report.
//
// A record keeps its request's finished span tree (Tree) rather than a
// copy of it: once a request is answered its tree never changes again,
// so the recorder renders Span and PhaseMs from the tree only when the
// ring is read (Snapshot, WriteJSON, Dump).
type FlightRecord struct {
	Seq        uint64             `json:"seq"`
	Time       string             `json:"time"`
	RequestID  string             `json:"requestId,omitempty"`
	Method     string             `json:"method,omitempty"`
	Path       string             `json:"path,omitempty"`
	Status     int                `json:"status,omitempty"`
	Mode       string             `json:"mode,omitempty"`
	CacheTier  string             `json:"cacheTier,omitempty"`
	Outcome    string             `json:"outcome"`
	DurationMs float64            `json:"durationMs"`
	PhaseMs    map[string]float64 `json:"phaseMs,omitempty"`
	Span       *SpanSnapshot      `json:"span,omitempty"`
	Stats      any                `json:"stats,omitempty"`
	// Tree, when set and Span is not, is the finished span tree the
	// record's Span and PhaseMs are read from.
	Tree *Span `json:"-"`
}

// render fills Span and PhaseMs from Tree, as a reader sees them.
func (rec *FlightRecord) render() {
	if rec.Tree == nil || rec.Span != nil {
		return
	}
	sn := rec.Tree.Snapshot()
	rec.Span = &sn
	var buf [16]Phase
	if phases := rec.Tree.AppendPhases(buf[:0]); len(phases) > 0 {
		rec.PhaseMs = make(map[string]float64, len(phases))
		for _, p := range phases {
			rec.PhaseMs[p.Name] = p.Millis
		}
	}
}

// FlightRecorder is a fixed-capacity concurrent ring buffer of
// FlightRecords. Writers never block readers for long: Record copies
// one struct under a mutex, Snapshot copies the ring out under the
// same mutex, and rendering the span trees and serialization happen
// outside it. Every method is safe on a nil *FlightRecorder and does
// nothing, so the disabled path costs one nil check (the same contract
// as *Span).
type FlightRecorder struct {
	mu       sync.Mutex
	ring     []FlightRecord
	capacity int
	total    uint64 // records ever written; next Seq
	dumpPath string
}

// NewFlightRecorder returns a recorder keeping the last capacity
// records (capacity <= 0 uses DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: make([]FlightRecord, 0, capacity), capacity: capacity}
}

// SetDumpPath sets the file Dump writes to when called with "" as an
// explicit path.
func (fr *FlightRecorder) SetDumpPath(path string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.dumpPath = path
	fr.mu.Unlock()
}

// Record appends one record, evicting the oldest once the ring is
// full, and returns the assigned sequence number. The record's Seq and
// (when empty) Time are filled in.
func (fr *FlightRecorder) Record(rec FlightRecord) uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	rec.Seq = fr.total
	fr.total++
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if len(fr.ring) < fr.capacity {
		fr.ring = append(fr.ring, rec)
		return rec.Seq
	}
	// Ring is full: the slot holding the oldest record is total mod
	// capacity (records land in arrival order, so the ring is a simple
	// rotation of chronological order).
	fr.ring[rec.Seq%uint64(fr.capacity)] = rec
	return rec.Seq
}

// Snapshot returns the retained records oldest-first, each with its
// Span and PhaseMs rendered from its tree.
func (fr *FlightRecorder) Snapshot() []FlightRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	out := make([]FlightRecord, 0, len(fr.ring))
	if len(fr.ring) < fr.capacity {
		out = append(out, fr.ring...)
	} else {
		start := int(fr.total % uint64(fr.capacity))
		out = append(out, fr.ring[start:]...)
		out = append(out, fr.ring[:start]...)
	}
	fr.mu.Unlock()
	for i := range out {
		out[i].render()
	}
	return out
}

// Total returns the number of records ever written (not just retained).
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// Capacity returns the ring capacity (0 for a nil recorder).
func (fr *FlightRecorder) Capacity() int {
	if fr == nil {
		return 0
	}
	return fr.capacity
}

// flightDump is the JSON document WriteJSON and Dump emit.
type flightDump struct {
	Reason   string         `json:"reason,omitempty"`
	Time     string         `json:"time"`
	Capacity int            `json:"capacity"`
	Recorded uint64         `json:"recorded"`
	Records  []FlightRecord `json:"records"`
}

// WriteJSON writes the retained records (oldest-first) as one indented
// JSON document: {"time","capacity","recorded","records":[...]}.
func (fr *FlightRecorder) WriteJSON(w io.Writer, reason string) error {
	return fr.writeJSON(w, reason, time.Now())
}

// writeJSON is WriteJSON with the document's time given.
func (fr *FlightRecorder) writeJSON(w io.Writer, reason string, now time.Time) error {
	d := flightDump{
		Reason:   reason,
		Time:     now.UTC().Format(time.RFC3339Nano),
		Capacity: fr.Capacity(),
		Recorded: fr.Total(),
		Records:  fr.Snapshot(),
	}
	if d.Records == nil {
		d.Records = []FlightRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Dump writes the ring to path (or, when path is "", the configured
// dump path) and returns the file written. It is called from panic
// recovery and signal handlers, so it favors simplicity over
// atomicity: create/truncate, write, close. A nil recorder or an
// unset path is a no-op returning "".
func (fr *FlightRecorder) Dump(reason, path string) (string, error) {
	if fr == nil {
		return "", nil
	}
	if path == "" {
		fr.mu.Lock()
		path = fr.dumpPath
		fr.mu.Unlock()
	}
	if path == "" {
		return "", nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := fr.WriteJSON(f, reason)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return path, nil
}

// Handler serves the ring as JSON (the GET /debug/flight endpoint).
// Callers that expose it on a shared mux should wrap it with
// LoopbackOnly.
func (fr *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fr.WriteJSON(w, "")
	})
}

// LoopbackOnly wraps h, rejecting requests whose peer address is not a
// loopback interface with 403. Debug endpoints (/debug/flight) use it
// so that binding the service to a routable address does not expose
// request history.
func LoopbackOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			http.Error(w, "forbidden: loopback only", http.StatusForbidden)
			return
		}
		h.ServeHTTP(w, r)
	})
}
