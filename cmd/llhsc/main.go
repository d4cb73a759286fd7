// Command llhsc is the DeviceTree syntax and semantic checker: it
// derives per-VM DTS products from a core module + delta set + feature
// model, proves the allocation/syntactic/semantic constraints with the
// built-in SMT solver, and generates Bao hypervisor configuration files.
//
// Usage:
//
//	llhsc check    -core board.dts -deltas board.deltas -fm board.fm -vm veth0,... -vm veth1,...
//	llhsc generate -core board.dts -deltas board.deltas -fm board.fm -vm ... -vm ... -o outdir
//	llhsc infer-fm -core board.dts
//	llhsc demo     [-o outdir]      (the paper's running example)
//
// VM configurations are comma-separated feature lists; names of
// abstract parents may be omitted (they are implied by their children).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"llhsc/internal/buildinfo"
	"llhsc/internal/core"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/schema"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "llhsc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "check":
		return cmdCheckOrGenerate(args[1:], false)
	case "generate":
		return cmdCheckOrGenerate(args[1:], true)
	case "products":
		return cmdProducts(args[1:])
	case "infer-fm":
		return cmdInferFM(args[1:])
	case "demo":
		return cmdDemo(args[1:])
	case "version":
		info := buildinfo.Get()
		fmt.Printf("llhsc %s (commit %s, built %s, %s)\n",
			info.Version, info.Commit, info.Date, info.GoVersion)
		return nil
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  llhsc check    -core <dts> -deltas <file> -fm <file> -vm <features> [-vm ...] [-I <dir> ...] [-D <name[=value]> ...] [-schemas <dir>] [-parallel n] [-mode enumerate|lifted] [-trace] [-trace-json <file>]
  llhsc generate -core <dts> -deltas <file> -fm <file> -vm <features> [-vm ...] [-I <dir> ...] [-D <name[=value]> ...] [-o <dir>] [-parallel n] [-mode enumerate|lifted]
  llhsc products -fm <file> [-limit n]
  llhsc infer-fm -core <dts> [-I <dir> ...] [-D <name[=value]> ...]
  llhsc demo     [-o <dir>]
  llhsc version

Core DTS files are run through the built-in cpp-style preprocessor:
#include (searching -I directories), #define/-D macros and
#ifdef/#ifndef conditionals work as they do in the Linux kernel's DTS
build, and diagnostics point at the original file and line.`)
}

// vmFlags accumulates repeated -vm flags.
type vmFlags []string

func (v *vmFlags) String() string { return strings.Join(*v, ";") }
func (v *vmFlags) Set(s string) error {
	*v = append(*v, s)
	return nil
}

// includeFlags accumulates repeated -I include directories.
type includeFlags []string

func (v *includeFlags) String() string { return strings.Join(*v, ":") }
func (v *includeFlags) Set(s string) error {
	*v = append(*v, s)
	return nil
}

// defineFlags accumulates repeated -D NAME[=VALUE] macro definitions;
// a bare NAME defines it as 1, matching cpp.
type defineFlags map[string]string

func (d defineFlags) String() string {
	parts := make([]string, 0, len(d))
	for name, val := range d {
		parts = append(parts, name+"="+val)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func (d defineFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if name == "" {
		return fmt.Errorf("-D requires NAME or NAME=VALUE")
	}
	if !ok {
		val = "1"
	}
	d[name] = val
	return nil
}

// parseCoreDTS runs the real-world ingestion pipeline on a DTS file:
// cpp preprocessing (#include/#define/#ifdef with the -I search path
// and -D definitions) followed by parsing, with error positions mapped
// back to the original files. dtc-style /include/ directives still
// resolve relative to the file.
func parseCoreDTS(path string, includes []string, defines map[string]string) (*dts.Tree, error) {
	return preproc.ParseFile(path, preproc.Options{
		IncludePaths: includes,
		Defines:      defines,
	}, dts.WithIncluder(dts.DirIncluder(filepath.Dir(path))))
}

func cmdCheckOrGenerate(args []string, generate bool) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	corePath := fs.String("core", "", "core-module DTS file")
	deltasPath := fs.String("deltas", "", "delta-module file")
	fmPath := fs.String("fm", "", "feature-model file")
	schemasDir := fs.String("schemas", "", "directory of dt-schema YAML files (default: built-in set)")
	outDir := fs.String("o", "out", "output directory (generate only)")
	parallel := fs.Int("parallel", 0,
		"worker count for per-VM checking (0 = GOMAXPROCS, 1 = serial)")
	var mode core.Mode
	fs.Var(&mode, "mode",
		"checking mode: enumerate (derive and check each requested product) or lifted (verify the whole product line at once)")
	trace := fs.Bool("trace", false,
		"print the phase span tree and solver statistics to stderr")
	traceJSON := fs.String("trace-json", "",
		"write the phase span tree as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	var vms vmFlags
	fs.Var(&vms, "vm", "feature list for one VM (repeatable)")
	var includes includeFlags
	fs.Var(&includes, "I", "cpp include search directory for the core DTS (repeatable)")
	defines := defineFlags{}
	fs.Var(defines, "D", "cpp macro NAME[=VALUE] predefined for the core DTS (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corePath == "" || *deltasPath == "" || *fmPath == "" {
		return fmt.Errorf("check/generate require -core, -deltas and -fm")
	}
	if len(vms) == 0 {
		return fmt.Errorf("at least one -vm configuration is required")
	}

	tree, err := parseCoreDTS(*corePath, includes, defines)
	if err != nil {
		return err
	}
	deltaSrc, err := os.ReadFile(*deltasPath)
	if err != nil {
		return err
	}
	fmSrc, err := os.ReadFile(*fmPath)
	if err != nil {
		return err
	}
	fe, err := core.ParseFrontEnd("", tree, filepath.Base(*deltasPath), string(deltaSrc), filepath.Base(*fmPath), string(fmSrc))
	if err != nil {
		return err
	}
	schemas, err := loadSchemas(*schemasDir)
	if err != nil {
		return err
	}

	configs := make([]featmodel.Configuration, len(vms))
	for i, list := range vms {
		if configs[i], err = fe.Model.Complete(strings.Split(list, ",")); err != nil {
			return fmt.Errorf("vm %d selects %w", i+1, err)
		}
	}

	pipeline := &core.Pipeline{
		FrontEnd:  fe,
		Schemas:   schemas,
		VMConfigs: configs,
		Mode:      mode,
	}
	ctx := context.Background()
	var root *obs.Span
	if *trace || *traceJSON != "" {
		root = obs.NewSpan("llhsc")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	report, err := pipeline.RunContext(ctx, core.Limits{Parallelism: *parallel})
	if root != nil {
		root.End()
		if *trace {
			printTrace(os.Stderr, root, report)
		}
		if *traceJSON != "" {
			if werr := writeTraceJSON(*traceJSON, root); werr != nil {
				return werr
			}
		}
	}
	if err != nil {
		return err
	}
	printReport(report)
	if !report.OK() {
		return fmt.Errorf("%d violation(s)", len(report.AllViolations()))
	}
	if generate {
		return writeArtifacts(report, *outDir)
	}
	return nil
}

func loadSchemas(dir string) (*schema.Set, error) {
	if dir == "" {
		return schema.StandardSet(), nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := &schema.Set{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc, err := schema.Load(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if sc.ID == "" {
			sc.ID = e.Name()
		}
		set.Add(sc)
	}
	if len(set.Schemas) == 0 {
		return nil, fmt.Errorf("no .yaml schemas found in %s", dir)
	}
	return set, nil
}

// writeTraceJSON exports the finished span tree in Chrome trace-event
// form. The file is byte-deterministic for a fixed span tree.
func writeTraceJSON(path string, root *obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, root.Snapshot())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace-json: %w", werr)
	}
	return nil
}

// printTrace renders the span tree and the per-family solver-work
// summary to w (stderr for -trace, keeping stdout parseable).
func printTrace(w io.Writer, root *obs.Span, r *core.Report) {
	fmt.Fprintln(w, "--- trace ---")
	root.WriteTree(w)
	if r == nil {
		return
	}
	fmt.Fprintln(w, "--- solver stats ---")
	families := make([]string, 0, len(r.Stats.Families))
	for name := range r.Stats.Families {
		families = append(families, name)
	}
	sort.Strings(families)
	for _, name := range families {
		fs := r.Stats.Families[name]
		fmt.Fprintf(w,
			"%-12s checks=%d solver_calls=%d pairs=%d pruned=%d conflicts=%d propagations=%d restarts=%d\n",
			name, fs.Checks, fs.SolverCalls, fs.Pairs, fs.PairsPruned,
			fs.Conflicts, fs.Propagations, fs.Restarts)
	}
	if ls := r.Stats.Lifted; ls != nil {
		fmt.Fprintf(w, "lifted       products=%d queries=%d pruned=%d word_decided=%d sessions=%d findings=%d\n",
			ls.Products, ls.Queries, ls.Pruned, ls.WordDecided, ls.Sessions, ls.Findings)
	}
	if r.Stats.CacheHits+r.Stats.CacheMisses > 0 {
		fmt.Fprintf(w, "cache        hits=%d misses=%d\n", r.Stats.CacheHits, r.Stats.CacheMisses)
	}
}

func printReport(r *core.Report) {
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Printf("llhsc: %s (%d VM(s), %d violation(s))\n",
		status, len(r.VMs), len(r.AllViolations()))
	for _, v := range r.Allocation {
		fmt.Printf("  allocation: %s\n", v)
	}
	for _, f := range r.Lifted {
		fmt.Printf("  lifted: %s\n", f)
	}
	for _, vm := range r.VMs {
		fmt.Printf("  %s: deltas %v, %d violation(s)\n", vm.Name, vm.Trace, len(vm.Violations))
		for _, v := range vm.Violations {
			fmt.Printf("    %s\n", v)
		}
	}
	if len(r.Platform.Violations) > 0 {
		fmt.Printf("  platform: %d violation(s)\n", len(r.Platform.Violations))
		for _, v := range r.Platform.Violations {
			fmt.Printf("    %s\n", v)
		}
	}
}

func writeArtifacts(r *core.Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"platform.dts":     r.Platform.DTS,
		"platform.c":       r.Artifacts.PlatformC(),
		"config.c":         r.Artifacts.ConfigC(),
		"jailhouse-root.c": r.Artifacts.JailhouseRootC(),
		"qemu.sh":          "#!/bin/sh\nexec " + strings.Join(r.Artifacts.QEMUArgs(), " ") + " \"$@\"\n",
	}
	cells := r.Artifacts.JailhouseCellsC()
	for i, vm := range r.VMs {
		files[vm.Name+".dts"] = vm.DTS
		if i < len(cells) {
			files["jailhouse-"+vm.Name+".c"] = cells[i]
		}
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d artifacts to %s\n", len(files), dir)
	return nil
}

// cmdProducts enumerates the valid products of a feature model.
func cmdProducts(args []string) error {
	fs := flag.NewFlagSet("products", flag.ContinueOnError)
	fmPath := fs.String("fm", "", "feature-model file")
	limit := fs.Int("limit", 0, "maximum products to list (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fmPath == "" {
		return fmt.Errorf("products requires -fm")
	}
	src, err := os.ReadFile(*fmPath)
	if err != nil {
		return err
	}
	model, err := featmodel.ParseModel(filepath.Base(*fmPath), string(src))
	if err != nil {
		return err
	}
	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(*limit)
	for i, p := range products {
		fmt.Printf("%3d: %s\n", i+1, strings.Join(p, " "))
	}
	if !complete {
		fmt.Println("... (limit reached)")
	}
	fmt.Printf("%d valid product(s)\n", len(products))
	return nil
}

func cmdInferFM(args []string) error {
	fs := flag.NewFlagSet("infer-fm", flag.ContinueOnError)
	corePath := fs.String("core", "", "core-module DTS file")
	var includes includeFlags
	fs.Var(&includes, "I", "cpp include search directory (repeatable)")
	defines := defineFlags{}
	fs.Var(defines, "D", "cpp macro NAME[=VALUE] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corePath == "" {
		return fmt.Errorf("infer-fm requires -core")
	}
	tree, err := parseCoreDTS(*corePath, includes, defines)
	if err != nil {
		return err
	}
	model, err := featmodel.InferFromDTS(tree, featmodel.InferOptions{})
	if err != nil {
		return err
	}
	fmt.Print(model.Format())
	return nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	outDir := fs.String("o", "", "write artifacts to this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipeline, err := core.RunningExample()
	if err != nil {
		return err
	}
	report, err := pipeline.Run()
	if err != nil {
		return err
	}
	printReport(report)
	if !report.OK() {
		return fmt.Errorf("running example failed its own checks")
	}
	if *outDir != "" {
		return writeArtifacts(report, *outDir)
	}
	fmt.Println("--- platform.c (Listing 3) ---")
	fmt.Print(report.Artifacts.PlatformC())
	fmt.Println("--- config.c (Listing 6) ---")
	fmt.Print(report.Artifacts.ConfigC())
	return nil
}
