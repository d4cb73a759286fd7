package featmodel

import "fmt"

// Conflict decides whether a complete configuration (every feature not
// listed is deselected) is a valid product of the model. It returns nil
// for a valid product, and otherwise the literals of the first violated
// constraint, e.g. [veth0 !cpu@0]. The order of the checks is the one
// documented on MultiModel.Conflict; names outside the model are
// ignored.
func (m *Model) Conflict(cfg Configuration) []string {
	return m.productConflict(cfg, 0)
}

// Conflict is the ground check of Section IV-A: configs holds one
// complete configuration per VM, and the partitioning is valid iff
// each is a valid product of the base model and each Exclusive feature
// is selected by at most one VM. Every feature is assigned, so the
// check is evaluation, not search: it is held to the CNF encoding of
// ToFormula by the tests.
//
// It returns nil when the partitioning is valid, and otherwise the
// literals of the first violated constraint, prefixed by their VM
// (VMPrefix) and negated with "!", e.g. [vm1/cpu@0 vm2/cpu@0]. VMs are
// checked in order; within one VM the constraints are checked kind by
// kind, each kind over the features in depth-first order:
//
//  1. the root is selected: [!root];
//  2. a selected child has its parent selected: [child !parent];
//  3. a selected AND-parent has its mandatory children: [parent !child];
//  4. a selected OR/XOR-parent has a selected child: [parent !c1 … !cn],
//     and a XOR group has at most one: [ci cj], the first two selected;
//  5. the cross-tree constraints hold, in declaration order (Expr.Eval):
//     the literals of the constraint's features, in first-mention order.
//
// After all VMs, each Exclusive feature (depth-first order) may be
// selected by at most one VM: [vmi/f vmj/f], the first two selecting it.
// Names outside the model are ignored, as the encoding ignores them.
// A configs length other than mm.VMs is an error.
func (mm *MultiModel) Conflict(configs []Configuration) ([]string, error) {
	if len(configs) != mm.VMs {
		return nil, fmt.Errorf("featmodel: %d configurations for %d VMs", len(configs), mm.VMs)
	}
	m := mm.Base
	for k, cfg := range configs {
		if lits := m.productConflict(cfg, k+1); lits != nil {
			return lits, nil
		}
	}
	for _, name := range m.order {
		if !m.features[name].Exclusive {
			continue
		}
		first := -1
		for k, cfg := range configs {
			if !cfg[name] {
				continue
			}
			if first >= 0 {
				return []string{literal(first+1, name, true), literal(k+1, name, true)}, nil
			}
			first = k
		}
	}
	return nil, nil
}

// literal names one assignment of a feature, prefixed by VMPrefix(vm)
// when vm > 0 and negated with "!" when the feature is deselected.
func literal(vm int, name string, selected bool) string {
	if vm > 0 {
		name = VMPrefix(vm) + name
	}
	if !selected {
		return "!" + name
	}
	return name
}

// productConflict checks constraint kinds 1–5 of MultiModel.Conflict
// for one VM's configuration (vm = 0: literals without a prefix).
func (m *Model) productConflict(cfg Configuration, vm int) []string {
	if !cfg[m.Root.Name] {
		return []string{literal(vm, m.Root.Name, false)}
	}
	for _, name := range m.order {
		if p := m.parent[name]; p != nil && cfg[name] && !cfg[p.Name] {
			return []string{literal(vm, name, true), literal(vm, p.Name, false)}
		}
	}
	for _, name := range m.order {
		f := m.features[name]
		if f.Group == GroupOr || f.Group == GroupXor || !cfg[name] {
			continue
		}
		for _, c := range f.Children {
			if c.Mandatory && !cfg[c.Name] {
				return []string{literal(vm, name, true), literal(vm, c.Name, false)}
			}
		}
	}
	for _, name := range m.order {
		f := m.features[name]
		if (f.Group != GroupOr && f.Group != GroupXor) || len(f.Children) == 0 || !cfg[name] {
			continue
		}
		first := -1
		for i, c := range f.Children {
			if !cfg[c.Name] {
				continue
			}
			if first >= 0 && f.Group == GroupXor {
				return []string{literal(vm, f.Children[first].Name, true), literal(vm, c.Name, true)}
			}
			if first < 0 {
				first = i
			}
		}
		if first < 0 {
			lits := []string{literal(vm, name, true)}
			for _, c := range f.Children {
				lits = append(lits, literal(vm, c.Name, false))
			}
			return lits
		}
	}
	for _, c := range m.Constraints {
		if c.Eval(cfg) {
			continue
		}
		var lits []string
		for _, n := range c.Names() {
			lits = append(lits, literal(vm, n, cfg[n]))
		}
		return lits
	}
	return nil
}
