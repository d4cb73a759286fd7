// Hypervisor: the paper's running example end to end — the CustomSBC
// core module (Listings 1–2), the delta product line (Listing 4), the
// Fig. 1a feature model, the Fig. 1b/1c VM products — checked by all
// three constraint families and turned into the Bao configuration files
// of Listings 3 and 6.
//
// Run with: go run ./examples/hypervisor
package main

import (
	"fmt"
	"log"
	"strings"

	"llhsc/internal/core"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

func main() {
	pipeline, err := core.RunningExample()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("feature model (Fig. 1a):")
	fmt.Println(indent(pipeline.Model.Format(), "  "))
	n, _ := featmodel.NewAnalyzer(pipeline.Model).CountProducts(0)
	fmt.Printf("valid products: %d (the paper reports %d)\n\n",
		n, runningexample.ProductCount)

	report, err := pipeline.Run()
	if err != nil {
		log.Fatal(err)
	}
	if !report.OK() {
		for _, v := range report.AllViolations() {
			fmt.Println("violation:", v)
		}
		log.Fatal("running example failed its checks")
	}

	for _, vm := range report.VMs {
		fmt.Printf("%s (deltas %v):\n%s\n", vm.Name, vm.Trace, indent(vm.DTS, "  "))
	}
	fmt.Printf("platform DTS (union product):\n%s\n", indent(report.Platform.DTS, "  "))
	fmt.Printf("platform config C (Listing 3):\n%s\n", indent(report.Artifacts.PlatformC(), "  "))
	fmt.Printf("VM config C (Listing 6):\n%s\n", indent(report.Artifacts.ConfigC(), "  "))
	fmt.Printf("QEMU equivalent:\n  %s\n", strings.Join(report.Artifacts.QEMUArgs(), " "))
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
