package core

import (
	"sync"

	"llhsc/internal/constraints"
)

// This file is the pooled-buffer half of the zero-allocation hot path
// (DESIGN.md §13): the Report shell is recycled through a sync.Pool
// instead of re-allocated per run. The server would otherwise pay that
// allocation once per request, so in steady state a /check that hits
// the word tier and the check cache touches the allocator only for data
// that actually escapes into the response.

// reportPool recycles Report shells between runs. Only memory that
// never escapes a released report is reused: the struct itself and the
// VMs slot array.
var reportPool = sync.Pool{New: func() interface{} { return new(Report) }}

// AcquireReport returns an empty Report drawing on capacity from
// previously Released reports. RunContext uses it internally, so
// callers normally never see this function; it is exported alongside
// Release for callers that build reports themselves.
func AcquireReport() *Report {
	return reportPool.Get().(*Report)
}

// Release clears the report and returns its recyclable buffers to the
// pool. The caller must be completely done with the report AND with
// every slice read out of it that Release clears (Allocation, Lifted,
// VMs) — copy anything that outlives the report first. The service
// writes its /check reply from the report, then releases it.
// Releasing is optional: an un-Released report is ordinary garbage.
func (r *Report) Release() {
	for i := range r.Allocation {
		r.Allocation[i] = constraints.Violation{}
	}
	r.Allocation = r.Allocation[:0]
	for i := range r.Lifted {
		r.Lifted[i] = constraints.LiftedFinding{}
	}
	r.Lifted = r.Lifted[:0]
	for i := range r.VMs {
		r.VMs[i] = VMResult{}
	}
	r.VMs = r.VMs[:0]
	r.Platform = PlatformResult{}
	r.Artifacts = Artifacts{}
	r.Stats = RunStats{}
	reportPool.Put(r)
}

// vmSlots resizes r.VMs to n zeroed entries, reusing a released
// report's backing array when it is large enough.
func (r *Report) vmSlots(n int) {
	if cap(r.VMs) < n {
		r.VMs = make([]VMResult, n)
		return
	}
	r.VMs = r.VMs[:n]
	for i := range r.VMs {
		r.VMs[i] = VMResult{}
	}
}
