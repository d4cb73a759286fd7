// Command llhsc-bench regenerates every table and figure of the paper
// (experiments E1–E7) plus the scaling/ablation extensions (E8–E16).
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded results.
//
// Usage:
//
//	llhsc-bench           # run everything
//	llhsc-bench -exp e5   # run one experiment
//	llhsc-bench -list     # list the experiments
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
	exp := fs.String("exp", "all", "experiment id (e1..e16) or 'all'")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		return err
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
