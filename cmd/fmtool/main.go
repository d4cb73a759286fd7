// Command fmtool runs the automated feature-model analyses of the
// paper's Section II-B over a model in the textual format of
// internal/featmodel (see cmd/llhsc's -fm flag).
//
// Usage:
//
//	fmtool count     -fm model.fm [-limit n]
//	fmtool enumerate -fm model.fm [-limit n]
//	fmtool void      -fm model.fm
//	fmtool dead      -fm model.fm
//	fmtool core      -fm model.fm
//	fmtool valid     -fm model.fm -config a,b,c
//	fmtool partition -fm model.fm -vms k
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"llhsc/internal/featmodel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fmtool:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fmtool count|enumerate|void|dead|core|valid|partition -fm <file> [flags]")
	}
	sub := args[0]
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	fmPath := fs.String("fm", "", "feature-model file")
	limit := fs.Int("limit", 0, "limit for count/enumerate (0 = unlimited)")
	config := fs.String("config", "", "comma-separated feature selection (valid)")
	vms := fs.Int("vms", 2, "VM count (partition)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *fmPath == "" {
		return fmt.Errorf("-fm is required")
	}
	src, err := os.ReadFile(*fmPath)
	if err != nil {
		return err
	}
	model, err := featmodel.ParseModel(filepath.Base(*fmPath), string(src))
	if err != nil {
		return err
	}
	a := featmodel.NewAnalyzer(model)

	switch sub {
	case "count":
		n, complete := a.CountProducts(*limit)
		suffix := ""
		if !complete {
			suffix = "+ (limit reached)"
		}
		fmt.Printf("%d%s\n", n, suffix)
	case "enumerate":
		products, complete := a.EnumerateProducts(*limit)
		for _, p := range products {
			fmt.Println(strings.Join(p, " "))
		}
		if !complete {
			fmt.Println("... (limit reached)")
		}
	case "void":
		fmt.Println(a.IsVoid())
	case "dead":
		for _, f := range a.DeadFeatures() {
			fmt.Println(f)
		}
	case "core":
		for _, f := range a.CoreFeatures() {
			fmt.Println(f)
		}
	case "valid":
		if *config == "" {
			return fmt.Errorf("valid requires -config")
		}
		cfg, err := model.Complete(strings.Split(*config, ","))
		if err != nil {
			return fmt.Errorf("-config: %w", err)
		}
		if lits := model.Conflict(cfg); lits != nil {
			fmt.Printf("invalid: %v\n", lits)
			return fmt.Errorf("configuration is not a valid product")
		}
		fmt.Println("valid")
	case "partition":
		mm, err := featmodel.NewMultiModel(model, *vms)
		if err != nil {
			return err
		}
		ma, err := featmodel.NewMultiAnalyzer(mm)
		if err != nil {
			return err
		}
		if ma.IsVoid() {
			fmt.Printf("infeasible: no valid partitioning into %d VMs\n", *vms)
			return fmt.Errorf("infeasible")
		}
		configs, err := ma.SolveAssignment(nil)
		if err != nil {
			return err
		}
		for i, cfg := range configs {
			fmt.Printf("vm%d: %s\n", i+1, strings.Join(cfg.Sorted(), " "))
		}
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	return nil
}
