package featmodel

import (
	"fmt"
	"sort"

	"llhsc/internal/logic"
	"llhsc/internal/sat"
)

// MultiModel is the multi-product feature model of Section IV-A: one
// copy of the base model per VM plus a platform view, with features
// marked Exclusive assignable to at most one VM (the paper's
// exclusive-resource-usage constraint — cpu@0 may appear in at most one
// VM's product, and within a VM the base XOR semantics still applies).
type MultiModel struct {
	Base *Model
	VMs  int
}

// NewMultiModel wraps a base model for k VMs (k >= 1).
func NewMultiModel(base *Model, k int) (*MultiModel, error) {
	if k < 1 {
		return nil, fmt.Errorf("featmodel: VM count %d out of range", k)
	}
	return &MultiModel{Base: base, VMs: k}, nil
}

// VMPrefix returns the variable prefix for VM k (1-based).
func VMPrefix(k int) string { return fmt.Sprintf("vm%d/", k) }

// PlatformPrefix is the variable prefix of the platform (union) model.
const PlatformPrefix = "platform/"

// ToFormula builds the multi-product constraint system:
//
//   - each VM k satisfies the base model over variables "vm<k>/<f>",
//   - each exclusive feature is selected by at most one VM,
//   - each platform variable "platform/<f>" is the union (disjunction)
//     of the per-VM selections.
func (mm *MultiModel) ToFormula(vm *VarMap) (*logic.Formula, error) {
	var parts []*logic.Formula
	for k := 1; k <= mm.VMs; k++ {
		f, err := mm.Base.ToFormula(vm, VMPrefix(k))
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	for _, name := range mm.Base.order {
		f := mm.Base.features[name]
		perVM := make([]*logic.Formula, mm.VMs)
		for k := 1; k <= mm.VMs; k++ {
			perVM[k-1] = logic.V(vm.Var(VMPrefix(k) + name))
		}
		if f.Exclusive {
			parts = append(parts, logic.AtMostOne(perVM...))
		}
		platform := logic.V(vm.Var(PlatformPrefix + name))
		parts = append(parts, logic.Iff(platform, logic.Or(perVM...)))
	}
	return logic.And(parts...), nil
}

// MultiAnalyzer answers the queries over a MultiModel that search:
// whether any partitioning exists (IsVoid) and completing partial pins
// into one (SolveAssignment). Checking a given partitioning is ground
// evaluation (MultiModel.Conflict).
type MultiAnalyzer struct {
	mm     *MultiModel
	vm     *VarMap
	solver *sat.Solver
}

// NewMultiAnalyzer prepares the SAT encoding. It errors on a malformed
// base model (one assembled by hand rather than through NewModel).
func NewMultiAnalyzer(mm *MultiModel) (*MultiAnalyzer, error) {
	pool := logic.NewPool()
	vm := NewVarMap(pool)
	f, err := mm.ToFormula(vm)
	if err != nil {
		return nil, err
	}
	s := sat.New()
	s.AddCNF(logic.ToCNF(f, pool))
	return &MultiAnalyzer{mm: mm, vm: vm, solver: s}, nil
}

// IsVoid reports whether no assignment of products to the VMs exists at
// all (e.g. more VMs than exclusive mandatory resources).
func (ma *MultiAnalyzer) IsVoid() bool {
	return ma.solver.Solve() != sat.Sat
}

// ConflictError explains why SolveAssignment found no assignment.
type ConflictError struct {
	Literals []string // the conflicting pins, e.g. "vm1/veth0"
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("featmodel: invalid partitioning, conflict over %v", e.Literals)
}

// SolveAssignment asks the solver for any valid assignment of products
// to VMs (useful for automatic resource allocation: grayed-out CPU
// features in Fig. 1 are chosen by the solver, not the user). Partial
// constraints pin named features per VM: pins[k]["veth0"] = true.
func (ma *MultiAnalyzer) SolveAssignment(pins []map[string]bool) ([]Configuration, error) {
	if len(pins) > ma.mm.VMs {
		return nil, fmt.Errorf("featmodel: %d pin sets for %d VMs", len(pins), ma.mm.VMs)
	}
	var assumptions []logic.Lit
	for k, pinSet := range pins {
		prefix := VMPrefix(k + 1)
		names := make([]string, 0, len(pinSet))
		for name := range pinSet {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, ok := ma.mm.Base.features[name]; !ok {
				return nil, fmt.Errorf("featmodel: unknown feature %q pinned for VM %d", name, k+1)
			}
			v := ma.vm.Var(prefix + name)
			if pinSet[name] {
				assumptions = append(assumptions, logic.Lit(v))
			} else {
				assumptions = append(assumptions, -logic.Lit(v))
			}
		}
	}
	if ma.solver.Solve(assumptions...) != sat.Sat {
		return nil, &ConflictError{Literals: ma.failedNames()}
	}
	out := make([]Configuration, ma.mm.VMs)
	for k := 1; k <= ma.mm.VMs; k++ {
		cfg := make(Configuration)
		for _, name := range ma.mm.Base.order {
			if ma.solver.Value(ma.vm.Var(VMPrefix(k) + name)) {
				cfg[name] = true
			}
		}
		out[k-1] = cfg
	}
	return out, nil
}

func (ma *MultiAnalyzer) failedNames() []string {
	var out []string
	for _, l := range ma.solver.FailedAssumptions() {
		if name, ok := ma.vm.Name(l.Var()); ok {
			if !l.Positive() {
				name = "!" + name
			}
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// PlatformUnion computes the platform configuration: the union of the
// VM configurations (Section III-A: "the platform DTS is the union of
// selected features in both products").
func PlatformUnion(configs []Configuration) Configuration {
	union := make(Configuration)
	for _, cfg := range configs {
		for name, sel := range cfg {
			if sel {
				union[name] = true
			}
		}
	}
	return union
}
