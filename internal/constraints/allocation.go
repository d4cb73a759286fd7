package constraints

import (
	"context"
	"fmt"

	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
)

// AllocationChecker enforces the resource-allocation constraints of
// Section IV-A: every VM's configuration must be a valid product of the
// shared feature model, and features marked Exclusive (CPUs under
// static partitioning) may be selected by at most one VM. Every VM
// configuration assigns every feature, so the check is ground
// evaluation (featmodel.MultiModel.Conflict) and builds no solver.
type AllocationChecker struct {
	Model *featmodel.Model
	VMs   int
}

// NewAllocationChecker prepares the check for k VMs (k >= 1).
func NewAllocationChecker(model *featmodel.Model, vms int) (*AllocationChecker, error) {
	if _, err := featmodel.NewMultiModel(model, vms); err != nil {
		return nil, err
	}
	return &AllocationChecker{Model: model, VMs: vms}, nil
}

// Check validates the per-VM configurations. A nil return means the
// partitioning is valid; otherwise the violations identify the
// conflicting feature literals.
func (c *AllocationChecker) Check(configs []featmodel.Configuration) []Violation {
	out, _ := c.CheckContext(context.Background(), configs)
	return out
}

// CheckContext is Check under a context: a canceled context is returned
// as ctx.Err() instead of being folded into the violation list, so
// callers can distinguish "invalid" from "unknown".
func (c *AllocationChecker) CheckContext(ctx context.Context, configs []featmodel.Configuration) ([]Violation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mm := featmodel.MultiModel{Base: c.Model, VMs: c.VMs}
	lits, err := mm.Conflict(configs)
	switch {
	case err != nil:
		return []Violation{{Rule: "allocation:error", Message: err.Error()}}, nil
	case lits != nil:
		return []Violation{{
			Rule:    "allocation:conflict",
			Message: fmt.Sprintf("invalid static partitioning; conflicting selections: %v", lits),
		}}, nil
	}
	return nil, nil
}

// Stats is always zero: the check does no solver work. It remains for
// callers that attribute SAT work per layer.
func (c *AllocationChecker) Stats() sat.Stats { return sat.Stats{} }
