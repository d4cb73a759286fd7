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
//
// Like Model.ToFormula it seeds no session: it is the reference
// AppendClauses is tested against.
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

// AppendClauses appends the multi-product CNF of ToFormula's semantics
// to dst, each clause terminated by a 0, and returns the extended
// arena. With off = pool.NumVars() on entry, E the NumVars of the base
// model's Encoding and v the base variable of feature f:
//
//   - VM k (1-based) holds the base clauses with every variable shifted
//     by off+(k−1)·E, so "vm<k>/<f>" is off+(k−1)·E+v;
//   - "platform/<f>" is off+VMs·E+v, defined as the union of the VMs'
//     selections of f;
//   - an exclusive feature is selected by at most one VM, encoded as
//     for a XOR group.
//
// Auxiliary variables are drawn from pool after these. The error is the
// base model's Encoding error.
func (mm *MultiModel) AppendClauses(dst []logic.Lit, pool *logic.Pool) ([]logic.Lit, error) {
	enc, err := mm.Base.Encoding()
	if err != nil {
		return dst, err
	}
	off, width := logic.Lit(pool.NumVars()), logic.Lit(enc.numVars)
	for k := range logic.Lit(mm.VMs) {
		shift := off + k*width
		for _, l := range enc.clauses {
			switch {
			case l > 0:
				l += shift
			case l < 0:
				l -= shift
			}
			dst = append(dst, l)
		}
	}
	platform := off + logic.Lit(mm.VMs)*width
	pool.Reserve(logic.Var(platform) + logic.Var(len(enc.names)))
	perVM := make([]logic.Lit, mm.VMs)
	for i, name := range enc.names {
		v := logic.Lit(i + 1)
		for k := range perVM {
			perVM[k] = off + logic.Lit(k)*width + v
		}
		if mm.Base.features[name].Exclusive {
			dst = logic.AppendAtMostOneSequential(dst, perVM, pool)
		}
		p := platform + v
		for _, l := range perVM {
			dst = append(dst, -l, p, 0)
		}
		dst = append(append(append(dst, -p), perVM...), 0)
	}
	return dst, nil
}

// MultiAnalyzer answers the queries over a MultiModel that search:
// whether any partitioning exists (IsVoid) and completing partial pins
// into one (SolveAssignment). Checking a given partitioning is ground
// evaluation (MultiModel.Conflict).
type MultiAnalyzer struct {
	mm     *MultiModel
	enc    *Encoding // the base model's; VM k's copy is shifted by (k−1)·enc.numVars
	solver *sat.Solver
}

// NewMultiAnalyzer seeds a solver with AppendClauses. It errors on a
// malformed base model (one changed after NewModel validated it).
func NewMultiAnalyzer(mm *MultiModel) (*MultiAnalyzer, error) {
	var pool logic.Pool
	clauses, err := mm.AppendClauses(nil, &pool)
	if err != nil {
		return nil, err
	}
	s := sat.New()
	s.AddClauses(pool.NumVars(), clauses)
	return &MultiAnalyzer{mm: mm, enc: mm.Base.enc, solver: s}, nil
}

// vmVar returns the variable of VM k's (1-based) copy of a feature.
func (ma *MultiAnalyzer) vmVar(k int, name string) (logic.Var, bool) {
	v, ok := ma.enc.vars[name]
	return logic.Var((k-1)*ma.enc.numVars) + v, ok
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
		names := make([]string, 0, len(pinSet))
		for name := range pinSet {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v, ok := ma.vmVar(k+1, name)
			if !ok {
				return nil, fmt.Errorf("featmodel: unknown feature %q pinned for VM %d", name, k+1)
			}
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
		for _, name := range ma.enc.names {
			if v, _ := ma.vmVar(k, name); ma.solver.Value(v) {
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
		// Assumptions are pins, so l is a VM copy of a feature.
		k, i := (int(l.Var())-1)/ma.enc.numVars, (int(l.Var())-1)%ma.enc.numVars
		out = append(out, literal(k+1, ma.enc.names[i], l.Positive()))
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
