package featmodel

import (
	"fmt"
	"sort"

	"llhsc/internal/dts"
)

// InferOptions tunes feature-model inference from a DTS (Section III-A
// of the paper: "We can automatically extract the set of features from
// the DTS to define the product line").
type InferOptions struct {
	// RootName names the root feature; defaults to the root node's
	// compatible string (its vendor-stripped product part) or
	// "CustomSBC" when absent.
	RootName string
	// GroupThreshold is the minimum number of same-base-name sibling
	// device nodes that are folded under an abstract group feature
	// (default 2).
	GroupThreshold int
	// OptionalGroups makes device-class group features (like "uarts")
	// optional instead of mandatory. The default (mandatory groups)
	// matches the paper's Fig. 1a count of 12 valid products, which
	// requires at least one UART in every product; see EXPERIMENTS.md
	// E2 for the discussion of the text/count discrepancy.
	OptionalGroups bool
}

// InferFromDTS derives a feature model from a DeviceTree:
//
//   - every top-level device node becomes a feature,
//   - memory nodes are mandatory (a board cannot boot without them),
//   - the cpus node becomes a mandatory abstract feature whose cpu
//     children form a XOR group of Exclusive features (one CPU per VM,
//     each CPU at most one VM — static partitioning, Section IV-A),
//   - device classes with several instances (e.g. two UARTs) fold into
//     an abstract group feature with OR semantics,
//   - remaining devices become optional features.
//
// Feature names use node labels when present (uart0), node names
// otherwise (cpu@0, memory).
func InferFromDTS(tree *dts.Tree, opts InferOptions) (*Model, error) {
	if opts.GroupThreshold <= 0 {
		opts.GroupThreshold = 2
	}
	rootName := opts.RootName
	if rootName == "" {
		rootName = "CustomSBC"
		if compat, ok := tree.Root.FirstCompatible(); ok {
			rootName = compat
		}
	}
	root := &Feature{Name: rootName, Abstract: true, Group: GroupAnd}

	featureName := func(n *dts.Node) string {
		if n.Label != "" {
			return n.Label
		}
		return n.Name
	}

	// bucket top-level device nodes by base name
	type bucket struct {
		base  string
		nodes []*dts.Node
	}
	var order []string
	buckets := make(map[string]*bucket)
	for _, n := range tree.Root.Children {
		base := n.BaseName()
		b, ok := buckets[base]
		if !ok {
			b = &bucket{base: base}
			buckets[base] = b
			order = append(order, base)
		}
		b.nodes = append(b.nodes, n)
	}
	sort.Strings(order)

	for _, base := range order {
		b := buckets[base]
		switch {
		case base == "cpus":
			cpusNode := b.nodes[0]
			cpus := &Feature{Name: "cpus", Abstract: true, Mandatory: true, Group: GroupXor}
			for _, cpu := range cpusNode.Children {
				cpus.Children = append(cpus.Children, &Feature{
					Name: featureName(cpu), Group: GroupAnd, Exclusive: true,
				})
			}
			if len(cpus.Children) == 0 {
				return nil, fmt.Errorf("featmodel: cpus node has no cpu children")
			}
			root.Children = append(root.Children, cpus)

		case base == "memory":
			for _, n := range b.nodes {
				root.Children = append(root.Children, &Feature{
					Name: featureName(n), Mandatory: true, Group: GroupAnd,
				})
			}

		case len(b.nodes) >= opts.GroupThreshold:
			group := &Feature{
				Name:      base + "s",
				Abstract:  true,
				Mandatory: !opts.OptionalGroups,
				Group:     GroupOr,
			}
			for _, n := range b.nodes {
				group.Children = append(group.Children, &Feature{
					Name: featureName(n), Group: GroupAnd,
				})
			}
			root.Children = append(root.Children, group)

		default:
			for _, n := range b.nodes {
				root.Children = append(root.Children, &Feature{
					Name: featureName(n), Group: GroupAnd,
				})
			}
		}
	}
	return NewModel(root)
}

// AddVirtualGroup extends a model (typically an inferred one) with an
// abstract optional group of virtual device features, as the paper does
// for vEthernet (Section III-A: virtual devices cannot appear in the
// core DTS, so they enter through the feature model and deltas).
// It returns a new Model; the receiver is not modified.
func (m *Model) AddVirtualGroup(groupName string, kind GroupKind, memberNames []string, constraints ...*Expr) (*Model, error) {
	rootCopy := cloneFeature(m.Root)
	group := &Feature{Name: groupName, Abstract: true, Group: kind}
	for _, name := range memberNames {
		group.Children = append(group.Children, &Feature{Name: name, Group: GroupAnd})
	}
	rootCopy.Children = append(rootCopy.Children, group)
	all := append(append([]*Expr(nil), m.Constraints...), constraints...)
	return NewModel(rootCopy, all...)
}

func cloneFeature(f *Feature) *Feature {
	c := &Feature{
		Name: f.Name, Abstract: f.Abstract, Mandatory: f.Mandatory,
		Exclusive: f.Exclusive, Group: f.Group,
	}
	for _, ch := range f.Children {
		c.Children = append(c.Children, cloneFeature(ch))
	}
	return c
}
