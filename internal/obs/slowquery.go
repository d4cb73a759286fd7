package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// QueryRecord is one solver-level decision as the slow-query log sees
// it: a semantic pair decision (word tier) or a lifted reachability
// query. Producers fill what they know; zero fields are omitted from
// the log line.
type QueryRecord struct {
	Family       string  `json:"family"`            // "semantic" | "lifted"
	Tier         string  `json:"tier"`              // "word" | "lifted" ("sat" in bundles from older builds)
	A            string  `json:"a,omitempty"`       // first region path (pair queries)
	B            string  `json:"b,omitempty"`       // second region path (pair queries)
	Query        string  `json:"query,omitempty"`   // guard expression (lifted queries)
	Verdict      string  `json:"verdict"`           // "overlap"|"disjoint"|"sat"|"unsat"|"limit"
	Witness      string  `json:"witness,omitempty"` // colliding address / sample config
	Millis       float64 `json:"millis"`
	SolverCalls  int     `json:"solverCalls,omitempty"`
	Conflicts    uint64  `json:"conflicts,omitempty"`
	Decisions    uint64  `json:"decisions,omitempty"`
	Propagations uint64  `json:"propagations,omitempty"`
	Bundle       string  `json:"bundle,omitempty"` // reproducer bundle path, if written
}

// SlowQueryLog receives every QueryRecord the instrumented checkers
// produce and emits a structured log line for those at or over the
// threshold. A nil *SlowQueryLog is a valid disabled log: Observe and
// Slow are no-ops, and — more importantly — the checkers' OnQuery
// hooks are left nil entirely when the log is disabled, so the hot
// decision loops never construct a QueryRecord at all.
type SlowQueryLog struct {
	thresholdMs float64
	mu          sync.Mutex
	w           io.Writer
	slow        Counter
	observed    Counter
}

// NewSlowQueryLog returns a log that writes one JSON line per query at
// or over thresholdMs to w (nil w = count but do not write).
func NewSlowQueryLog(w io.Writer, thresholdMs float64) *SlowQueryLog {
	return &SlowQueryLog{w: w, thresholdMs: thresholdMs}
}

// ThresholdMs returns the configured threshold (0 for a nil log).
func (l *SlowQueryLog) ThresholdMs() float64 {
	if l == nil {
		return 0
	}
	return l.thresholdMs
}

// Slow reports whether a query of the given duration crosses the
// threshold. False on a nil log.
func (l *SlowQueryLog) Slow(millis float64) bool {
	return l != nil && millis >= l.thresholdMs
}

// Observed returns how many queries have been observed in total.
func (l *SlowQueryLog) Observed() uint64 {
	if l == nil {
		return 0
	}
	return l.observed.Value()
}

// SlowCount returns how many observed queries crossed the threshold.
func (l *SlowQueryLog) SlowCount() uint64 {
	if l == nil {
		return 0
	}
	return l.slow.Value()
}

// Observe records one query, writing a structured line when it is
// slow. Safe on a nil log and for concurrent use.
func (l *SlowQueryLog) Observe(q QueryRecord) {
	if l == nil {
		return
	}
	l.observed.Inc()
	if q.Millis < l.thresholdMs {
		return
	}
	l.slow.Inc()
	if l.w == nil {
		return
	}
	line := struct {
		Time  string `json:"time"`
		Level string `json:"level"`
		Msg   string `json:"msg"`
		QueryRecord
	}{
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		Level:       "warn",
		Msg:         "slow-query",
		QueryRecord: q,
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
}
