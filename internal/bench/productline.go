package bench

import (
	"fmt"

	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/schema"
)

// SyntheticProductLine generates a complete product line for a board
// with the given number of CPUs (= maximum VMs) and UARTs: the core
// DTS, the feature model (CPUs exclusive, one UART group), the removal
// deltas for deselected features, and one valid configuration per VM
// (VM k takes cpu@k and uart k modulo the UART count). It scales the
// running example's structure to arbitrary size for experiment E12.
func SyntheticProductLine(cpus, uarts, vms int) (*core.Pipeline, error) {
	if vms > cpus {
		return nil, fmt.Errorf("bench: %d VMs need at least as many exclusive CPUs (have %d)", vms, cpus)
	}

	// ---- core DTS ----
	tree := dts.NewTree()
	root := tree.Root
	root.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	root.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(1)})
	root.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("llhsc,bigboard")})

	mem := root.EnsureChild("memory@40000000")
	mem.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("memory")})
	mem.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(0x40000000, 0x40000000)})

	cpusNode := root.EnsureChild("cpus")
	cpusNode.SetProperty(&dts.Property{Name: "#address-cells", Value: dts.CellsValue(1)})
	cpusNode.SetProperty(&dts.Property{Name: "#size-cells", Value: dts.CellsValue(0)})
	for i := 0; i < cpus; i++ {
		cpu := cpusNode.EnsureChild(fmt.Sprintf("cpu@%d", i))
		cpu.SetProperty(&dts.Property{Name: "device_type", Value: dts.StringValueOf("cpu")})
		cpu.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("arm,cortex-a53")})
		cpu.SetProperty(&dts.Property{Name: "enable-method", Value: dts.StringValueOf("psci")})
		cpu.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(uint32(i))})
	}
	for i := 0; i < uarts; i++ {
		base := uint32(0x10000000 + i*0x10000)
		u := root.EnsureChild(fmt.Sprintf("uart@%x", base))
		u.Label = fmt.Sprintf("uart%d", i)
		u.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("ns16550a")})
		u.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(base, 0x1000)})
	}

	// ---- feature model ----
	cpuGroup := &featmodel.Feature{
		Name: "cpus", Abstract: true, Mandatory: true, Group: featmodel.GroupXor,
	}
	for i := 0; i < cpus; i++ {
		cpuGroup.Children = append(cpuGroup.Children, &featmodel.Feature{
			Name: fmt.Sprintf("cpu@%d", i), Exclusive: true, Group: featmodel.GroupAnd,
		})
	}
	uartGroup := &featmodel.Feature{
		Name: "uarts", Abstract: true, Mandatory: true, Group: featmodel.GroupOr,
	}
	for i := 0; i < uarts; i++ {
		uartGroup.Children = append(uartGroup.Children, &featmodel.Feature{
			Name: fmt.Sprintf("uart%d", i), Group: featmodel.GroupAnd,
		})
	}
	modelRoot := &featmodel.Feature{
		Name: "BigBoard", Abstract: true, Group: featmodel.GroupAnd,
		Children: []*featmodel.Feature{
			{Name: "memory", Mandatory: true, Group: featmodel.GroupAnd},
			cpuGroup,
			uartGroup,
		},
	}
	model, err := featmodel.NewModel(modelRoot)
	if err != nil {
		return nil, err
	}

	// ---- removal deltas ----
	var deltas []*delta.Delta
	for i := 0; i < cpus; i++ {
		name := fmt.Sprintf("cpu@%d", i)
		deltas = append(deltas, &delta.Delta{
			Name: fmt.Sprintf("rm_cpu%d", i),
			When: featmodel.Not(featmodel.Var(name)),
			Ops:  []delta.Operation{{Kind: delta.OpRemovesNode, Target: name}},
		})
	}
	for i := 0; i < uarts; i++ {
		base := uint32(0x10000000 + i*0x10000)
		deltas = append(deltas, &delta.Delta{
			Name: fmt.Sprintf("rm_uart%d", i),
			When: featmodel.Not(featmodel.Var(fmt.Sprintf("uart%d", i))),
			Ops: []delta.Operation{{
				Kind: delta.OpRemovesNode, Target: fmt.Sprintf("uart@%x", base),
			}},
		})
	}
	set, err := delta.NewSet(deltas)
	if err != nil {
		return nil, err
	}

	// ---- one configuration per VM ----
	configs := make([]featmodel.Configuration, vms)
	for k := 0; k < vms; k++ {
		cfg := featmodel.ConfigOf(
			"BigBoard", "memory", "cpus", fmt.Sprintf("cpu@%d", k),
			"uarts", fmt.Sprintf("uart%d", k%uarts),
		)
		configs[k] = cfg
	}

	return &core.Pipeline{
		FrontEnd: &core.FrontEnd{
			// The board's size alone determines the core, deltas and model.
			Identity: fmt.Sprintf("synthetic line: %d CPUs, %d UARTs", cpus, uarts),
			Core:     tree, Deltas: set, Model: model,
		},
		Schemas:   schema.StandardSet(),
		VMConfigs: configs,
	}, nil
}
