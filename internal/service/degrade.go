// Graceful degradation: the service sheds load instead of falling
// over. Two mechanisms live here, both visible on /healthz:
//
//   - draining: an operator (or the shutdown path) marks the service
//     draining; /check and /lint answer 503 + Retry-After so load
//     balancers move on while in-flight requests finish.
//   - adaptive overload shedding: when the in-flight semaphore stays
//     saturated past a dwell threshold, /check drops to lint-only
//     checking (core.Pipeline.LintOnly) — exact structural verdicts,
//     the semantic, memreserve and interrupt families skipped — until
//     occupancy stays below half capacity for the exit dwell
//     (hysteresis, so the mode does not flap).
package service

import (
	"fmt"
	"sync"
	"time"
)

// Degrade modes for Options.Degrade.
const (
	// DegradeOff never sheds ("" means off too).
	DegradeOff = "off"
	// DegradeAuto sheds to lint-only while the in-flight semaphore is
	// saturated (and MaxInFlight is configured; without a semaphore
	// there is no saturation signal and auto never engages).
	DegradeAuto = "auto"
	// DegradeForce sheds every /check unconditionally — an operator
	// big-red-switch for riding out an incident.
	DegradeForce = "force"
)

// Default dwell thresholds for DegradeAuto: saturation must persist
// this long before shedding starts, and occupancy must stay under half
// capacity this long before full checking resumes.
const (
	defaultDegradeEnterAfter = 2 * time.Second
	defaultDegradeExitAfter  = 5 * time.Second
)

// degradeStats is the controller's /healthz snapshot.
type degradeStats struct {
	Mode   string `json:"mode"`
	Active bool   `json:"active"`
	// Entries counts times auto mode engaged shedding; Shed counts
	// /check requests answered lint-only.
	Entries uint64 `json:"entries"`
	Shed    uint64 `json:"shed_requests"`
}

// degradeController decides when /check runs lint-only. Occupancy is
// sampled at admission time (both admitted and 429-rejected requests
// feed it), so the controller costs nothing when the service is idle.
// A nil controller (mode off) never sheds.
type degradeController struct {
	forced     bool
	enterAfter time.Duration
	exitAfter  time.Duration
	now        func() time.Time // swapped in tests

	mu        sync.Mutex
	degraded  bool
	satSince  time.Time // start of the current saturation streak (zero = none)
	calmSince time.Time // start of the current calm streak (zero = none)
	entries   uint64
	shed      uint64
}

// newDegradeController returns nil for mode off/"" (the comparisons in
// the handlers are nil-safe), a forced controller for DegradeForce,
// and a dwell-based one for DegradeAuto. Any other mode is an error.
func newDegradeController(mode string, enterAfter, exitAfter time.Duration) (*degradeController, error) {
	switch mode {
	case "", DegradeOff:
		return nil, nil
	case DegradeAuto, DegradeForce:
	default:
		return nil, fmt.Errorf("unknown degrade mode %q (want off, auto or force)", mode)
	}
	if enterAfter <= 0 {
		enterAfter = defaultDegradeEnterAfter
	}
	if exitAfter <= 0 {
		exitAfter = defaultDegradeExitAfter
	}
	return &degradeController{
		forced:     mode == DegradeForce,
		enterAfter: enterAfter,
		exitAfter:  exitAfter,
		now:        time.Now,
	}, nil
}

// observe feeds one admission-time occupancy sample: inflight requests
// against the semaphore capacity (0 = unbounded, never saturated).
func (d *degradeController) observe(inflight, capacity int) {
	if d == nil || d.forced || capacity <= 0 {
		return
	}
	now := d.now()
	saturated := inflight >= capacity
	calm := inflight*2 <= capacity
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case saturated:
		d.calmSince = time.Time{}
		if d.satSince.IsZero() {
			d.satSince = now
		}
		if !d.degraded && now.Sub(d.satSince) >= d.enterAfter {
			d.degraded = true
			d.entries++
		}
	case calm:
		d.satSince = time.Time{}
		if d.calmSince.IsZero() {
			d.calmSince = now
		}
		if d.degraded && now.Sub(d.calmSince) >= d.exitAfter {
			d.degraded = false
		}
	default:
		// Middle band: neither streak advances — shedding holds
		// (hysteresis), and a brief dip below capacity does not reset
		// progress toward recovery more than it must.
		d.satSince = time.Time{}
		d.calmSince = time.Time{}
	}
}

// active reports whether the next /check should run lint-only, and
// counts the shed request when so.
func (d *degradeController) active() bool {
	if d == nil {
		return false
	}
	if d.forced {
		d.mu.Lock()
		d.shed++
		d.mu.Unlock()
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.degraded {
		d.shed++
	}
	return d.degraded
}

// peek reports the mode without counting a shed request (for /healthz
// and metrics).
func (d *degradeController) peek() bool {
	if d == nil {
		return false
	}
	if d.forced {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// stats snapshots the controller for /healthz.
func (d *degradeController) stats() degradeStats {
	if d == nil {
		return degradeStats{Mode: DegradeOff}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	mode := DegradeAuto
	if d.forced {
		mode = DegradeForce
	}
	return degradeStats{
		Mode:    mode,
		Active:  d.forced || d.degraded,
		Entries: d.entries,
		Shed:    d.shed,
	}
}
