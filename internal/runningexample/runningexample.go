// Package runningexample bundles the llhsc paper's running example —
// the CustomSBC DeviceTree (Listings 1 and 2), the delta modules of
// Listing 4, the feature model of Fig. 1a and the two VM products of
// Figs. 1b/1c — as ready-to-use artifacts shared by the pipeline tests,
// the benchmark harness (experiments E1–E7) and the example programs.
//
// Deviations from the paper's listings, all recorded in EXPERIMENTS.md:
//
//   - Listing 4's delta d2 adds "veth0@70000000" under "when veth1";
//     this is treated as a typo for veth1@70000000.
//   - d3's vEthernet node carries its own #address-cells/#size-cells:
//     the DeviceTree specification does not inherit cell sizes, and the
//     veth regs are (base, size) pairs of single cells.
//   - The paper shows only the deltas for virtual devices and the
//     memory cell-size conversion. To generate complete per-VM DTSs the
//     product line also needs (a) conversion deltas for the UART regs
//     once d3 switches the root to 32-bit cells and (b) removal deltas
//     for deselected features; d5/d6 and the rm_* deltas below complete
//     the set in the obvious way.
package runningexample

import (
	"fmt"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// CPUsDTSI is Listing 2: the processor-cluster binding included by the
// core module.
const CPUsDTSI = `
/ {
	cpus {
		#address-cells = <0x1>;
		#size-cells = <0x0>;

		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "psci";
			reg = <0x0>;
		};

		cpu@1 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "psci";
			reg = <0x1>;
		};
	};
};
`

// CoreDTS is Listing 1: the CustomSBC core module with two 64-bit
// memory banks, the CPU cluster include, and two serial ports.
const CoreDTS = `
/dts-v1/;

/include/ "cpus.dtsi"

/ {
	#address-cells = <2>;
	#size-cells = <2>;
	compatible = "vortex,custom-sbc";

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};

	uart0: uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
	};

	uart1: uart@30000000 {
		compatible = "ns16550a";
		reg = <0x0 0x30000000 0x0 0x1000>;
	};
};
`

// DeltasSource is Listing 4 (d1–d4) plus the completion deltas (d5/d6
// UART conversions and rm_* removals) described in the package comment.
const DeltasSource = `
delta d1 after d3 when veth0 {
    adds binding vEthernet {
        veth0@80000000 {
            compatible = "veth";
            reg = <0x80000000 0x10000000>;
            id = <0>;
        };
    }
}

delta d2 after d3 when veth1 {
    adds binding vEthernet {
        veth1@70000000 {
            compatible = "veth";
            reg = <0x70000000 0x10000000>;
            id = <1>;
        };
    }
}

delta d3 when (veth0 || veth1) {
    modifies / {
        #address-cells = <1>;
        #size-cells = <1>;
        vEthernet {
            #address-cells = <1>;
            #size-cells = <1>;
        };
    }
}

delta d4 after d3 when memory {
    modifies memory@40000000 {
        reg = <0x40000000 0x20000000
               0x60000000 0x20000000>;
    }
}

delta d5 after d3 when uart0 && (veth0 || veth1) {
    modifies uart@20000000 {
        reg = <0x20000000 0x1000>;
    }
}

delta d6 after d3 when uart1 && (veth0 || veth1) {
    modifies uart@30000000 {
        reg = <0x30000000 0x1000>;
    }
}

delta rm_cpu0 when !cpu@0 {
    removes node cpu@0;
}

delta rm_cpu1 when !cpu@1 {
    removes node cpu@1;
}

delta rm_uart0 when !uart0 {
    removes node uart@20000000;
}

delta rm_uart1 when !uart1 {
    removes node uart@30000000;
}
`

// Includer resolves the core module's /include/ of cpus.dtsi.
func Includer() dts.Includer {
	return dts.MapIncluder{"cpus.dtsi": CPUsDTSI}
}

// Tree parses the core module (Listing 1 + Listing 2).
func Tree() (*dts.Tree, error) {
	return dts.Parse("customsbc.dts", CoreDTS, dts.WithIncluder(Includer()))
}

// Deltas parses the product line's delta modules.
func Deltas() (*delta.Set, error) {
	return delta.Parse("customsbc.deltas", DeltasSource)
}

// Model builds the Fig. 1a feature model: memory mandatory, a XOR CPU
// group of exclusive resources, an OR UART group, an optional XOR
// virtual-Ethernet group, and the veth→cpu cross constraints.
func Model() (*featmodel.Model, error) {
	root := &featmodel.Feature{
		Name: "CustomSBC", Abstract: true, Group: featmodel.GroupAnd,
		Children: []*featmodel.Feature{
			{Name: "memory", Mandatory: true, Group: featmodel.GroupAnd},
			{Name: "cpus", Abstract: true, Mandatory: true, Group: featmodel.GroupXor,
				Children: []*featmodel.Feature{
					{Name: "cpu@0", Exclusive: true, Group: featmodel.GroupAnd},
					{Name: "cpu@1", Exclusive: true, Group: featmodel.GroupAnd},
				}},
			{Name: "uarts", Abstract: true, Mandatory: true, Group: featmodel.GroupOr,
				Children: []*featmodel.Feature{
					{Name: "uart0", Group: featmodel.GroupAnd},
					{Name: "uart1", Group: featmodel.GroupAnd},
				}},
			{Name: "vEthernet", Abstract: true, Group: featmodel.GroupXor,
				Children: []*featmodel.Feature{
					{Name: "veth0", Group: featmodel.GroupAnd},
					{Name: "veth1", Group: featmodel.GroupAnd},
				}},
		},
	}
	return featmodel.NewModel(root,
		featmodel.MustParseExpr("veth0 -> cpu@0"),
		featmodel.MustParseExpr("veth1 -> cpu@1"),
	)
}

// SpareModel is Model with n more optional features under the root,
// spare0 … spare<n-1>, that no delta reads: the same product line with
// ProductCount·2^n valid products. Three spares (96 products, and 144
// configurations of the feature tree alone) take the line past the 64
// a lifted check holds as product sets (featmodel.MaxProductSet), so it
// runs in a solver session.
func SpareModel(n int) (*featmodel.Model, error) {
	m, err := Model()
	if err != nil {
		return nil, err
	}
	root := m.Root
	for i := range n {
		root.Children = append(root.Children, &featmodel.Feature{Name: fmt.Sprintf("spare%d", i), Group: featmodel.GroupAnd})
	}
	return featmodel.NewModel(root, m.Constraints...)
}

// VM1Config is the Fig. 1b product: cpu@0, both UARTs, veth0.
func VM1Config() featmodel.Configuration {
	return featmodel.ConfigOf(
		"CustomSBC", "memory", "cpus", "cpu@0",
		"uarts", "uart0", "uart1", "vEthernet", "veth0",
	)
}

// VM2Config is the Fig. 1c product: cpu@1, both UARTs, veth1.
func VM2Config() featmodel.Configuration {
	return featmodel.ConfigOf(
		"CustomSBC", "memory", "cpus", "cpu@1",
		"uarts", "uart0", "uart1", "vEthernet", "veth1",
	)
}

// ProductCount is the number of valid products of the Fig. 1a model, as
// stated in Section III-A of the paper.
const ProductCount = 12
