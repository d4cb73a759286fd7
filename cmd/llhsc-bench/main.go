// Command llhsc-bench regenerates every table and figure of the paper
// (experiments E1–E7) plus the scaling/ablation extensions (E8–E19).
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded results.
//
// Usage:
//
//	llhsc-bench                              # run everything
//	llhsc-bench -exp e5                      # run one experiment
//	llhsc-bench -parallel-json BENCH_parallel.json   # emit the E13 artifact
//	llhsc-bench -obs-json BENCH_obs.json             # emit the E15 artifact
//	llhsc-bench -lifted-json BENCH_lifted.json       # emit the E16 artifact
//	llhsc-bench -persist-json BENCH_persist.json     # emit the E17 artifact
//	llhsc-bench -obsdeep-json BENCH_obsdeep.json     # emit the E19 artifact
//	llhsc-bench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"llhsc/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "llhsc-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("llhsc-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (e1..e19) or 'all'")
	list := fs.Bool("list", false, "list experiments")
	parallelJSON := fs.String("parallel-json", "",
		"write the E13 parallel-speedup measurement to this JSON file and exit")
	parallelVMs := fs.Int("parallel-vms", 8, "product-line size for -parallel-json")
	obsJSON := fs.String("obs-json", "",
		"write the E15 observability-overhead measurement to this JSON file and exit")
	obsVMs := fs.Int("obs-vms", 6, "product-line size for -obs-json")
	liftedJSON := fs.String("lifted-json", "",
		"write the E16 lifted-vs-enumerative measurement to this JSON file and exit")
	persistJSON := fs.String("persist-json", "",
		"write the E17 warm-restart recovery measurement to this JSON file and exit")
	persistVMs := fs.Int("persist-vms", 6, "product-line size for -persist-json")
	obsdeepJSON := fs.String("obsdeep-json", "",
		"write the E19 deep-diagnostics overhead measurement to this JSON file and exit")
	obsdeepVMs := fs.Int("obsdeep-vms", 6, "product-line size for -obsdeep-json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallelJSON != "" {
		if err := bench.WriteParallelJSON(*parallelJSON, *parallelVMs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *parallelJSON)
		return nil
	}
	if *obsJSON != "" {
		if err := bench.WriteObsJSON(*obsJSON, *obsVMs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *obsJSON)
		return nil
	}
	if *liftedJSON != "" {
		if err := bench.WriteLiftedJSON(*liftedJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *liftedJSON)
		return nil
	}
	if *persistJSON != "" {
		if err := bench.WritePersistJSON(*persistJSON, *persistVMs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *persistJSON)
		return nil
	}
	if *obsdeepJSON != "" {
		if err := bench.WriteDeepObsJSON(*obsdeepJSON, *obsdeepVMs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *obsdeepJSON)
		return nil
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "all" {
		return bench.RunAll(os.Stdout)
	}
	for _, e := range bench.Experiments() {
		if e.ID == *exp {
			return e.Run(os.Stdout)
		}
	}
	return fmt.Errorf("unknown experiment %q (use -list)", *exp)
}
