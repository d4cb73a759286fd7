// Quickstart: parse a DeviceTree source, validate it structurally
// (the dt-schema-equivalent baseline) and semantically (the Section
// IV-C overlap check), and print the verdicts.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"llhsc/internal/constraints"
	"llhsc/internal/dts"
	"llhsc/internal/schema"
)

const boardDTS = `
/dts-v1/;

/ {
	#address-cells = <1>;
	#size-cells = <1>;
	compatible = "acme,board";

	memory@80000000 {
		device_type = "memory";
		reg = <0x80000000 0x40000000>;
	};

	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "psci";
			reg = <0x0>;
		};
	};

	uart@10000000 {
		compatible = "ns16550a";
		reg = <0x10000000 0x1000>;
		interrupts = <5>;
	};

	// BUG: this timer's window collides with the uart above.
	timer@10000800 {
		reg = <0x10000800 0x1000>;
		interrupts = <6>;
	};
};
`

func main() {
	tree, err := dts.Parse("board.dts", boardDTS)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	fmt.Println("parsed", "board.dts:")
	tree.Root.Walk(func(path string, n *dts.Node) bool {
		if path != "/" {
			fmt.Println("  node", path)
		}
		return true
	})

	fmt.Println("\n--- structural validation (dt-schema baseline) ---")
	violations := schema.StandardSet().Validate(tree)
	if len(violations) == 0 {
		fmt.Println("clean (the baseline cannot see the overlap)")
	}
	for _, v := range violations {
		fmt.Println(" ", v)
	}

	fmt.Println("\n--- semantic validation (llhsc) ---")
	collisions, semViolations := constraints.NewSemanticChecker().Check(tree)
	for _, c := range collisions {
		fmt.Println("  COLLISION:", c)
	}
	for _, v := range semViolations {
		fmt.Println(" ", v)
	}
	if len(collisions) == 0 {
		fmt.Println("clean")
	}

	fmt.Println("\n--- interrupt uniqueness (extension) ---")
	irqs := constraints.InterruptChecker{}.Check(tree)
	if len(irqs) == 0 {
		fmt.Println("clean")
	}
	for _, v := range irqs {
		fmt.Println(" ", v)
	}
}
