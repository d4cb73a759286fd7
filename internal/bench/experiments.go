package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"llhsc/internal/addr"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
	"llhsc/internal/smt"
)

// Experiment is one reproducible experiment from DESIGN.md §4.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// Experiments returns all experiments in order.
func Experiments() []Experiment {
	return []Experiment{
		{"e1", "Parse the running example (Listings 1+2), round trip", RunE1},
		{"e2", "Infer the Fig. 1a feature model; count the 12 products", RunE2},
		{"e3", "Validate the Fig. 1b/1c products and rejected variants", RunE3},
		{"e4", "Delta activation and ordering (Listing 4)", RunE4},
		{"e5", "Address clash: baseline (dt-schema) vs llhsc (Section I-A)", RunE5},
		{"e6", "Truncation after omitting d4: collision at 0x0 (Section IV-C)", RunE6},
		{"e7", "Full pipeline: generate Listings 3 and 6", RunE7},
		{"e8", "Scaling: semantic overlap checks over n regions", RunE8},
		{"e9", "Scaling: feature-model analyses over n features", RunE9},
		{"e10", "Detection matrix: dtc-lint vs dt-schema vs llhsc", RunE10},
		{"e11", "Scaling: delta chains and incremental re-checking", RunE11},
		{"e12", "Scaling: full pipeline over k-VM synthetic product lines", RunE12},
		{"e13", "Parallel pipeline speedup over worker counts", RunE13},
		{"e16", "Family-based lifted checking vs product enumeration", RunE16},
	}
}

// RunAll executes every experiment, printing headers between them.
func RunAll(w io.Writer) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "==== %s: %s ====\n", strings.ToUpper(e.ID), e.Title)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunE1 parses the running example, checks its shape and that printing
// round-trips.
func RunE1(w io.Writer) error {
	start := time.Now()
	tree, err := runningexample.Tree()
	if err != nil {
		return err
	}
	parseTime := time.Since(start)

	nodes, props := 0, 0
	tree.Root.Walk(func(_ string, n *dts.Node) bool {
		nodes++
		props += len(n.Properties)
		return true
	})
	printed := tree.Print()
	reparsed, err := dts.Parse("roundtrip.dts", printed)
	if err != nil {
		return fmt.Errorf("round trip failed: %w", err)
	}
	again := reparsed.Print()
	fmt.Fprintf(w, "nodes=%d properties=%d parse=%s roundtrip_stable=%v\n",
		nodes, props, parseTime.Round(time.Microsecond), printed == again)
	for _, path := range []string{"/memory@40000000", "/cpus/cpu@0", "/cpus/cpu@1", "/uart@20000000", "/uart@30000000"} {
		fmt.Fprintf(w, "  %-20s present=%v\n", path, tree.Lookup(path) != nil)
	}
	return nil
}

// RunE2 infers the feature model from the DTS, adds the virtual
// Ethernet group and counts products (paper: 12).
func RunE2(w io.Writer) error {
	tree, err := runningexample.Tree()
	if err != nil {
		return err
	}
	inferred, err := featmodel.InferFromDTS(tree, featmodel.InferOptions{RootName: "CustomSBC"})
	if err != nil {
		return err
	}
	model, err := inferred.AddVirtualGroup("vEthernet", featmodel.GroupXor,
		[]string{"veth0", "veth1"},
		featmodel.MustParseExpr("veth0 -> cpu@0"),
		featmodel.MustParseExpr("veth1 -> cpu@1"))
	if err != nil {
		return err
	}
	a := featmodel.NewAnalyzer(model)
	n, complete := a.CountProducts(0)
	fmt.Fprintf(w, "features=%d products=%d (paper: %d) complete=%v void=%v\n",
		len(model.Names()), n, runningexample.ProductCount, complete, a.IsVoid())
	fmt.Fprintf(w, "core features: %v\n", a.CoreFeatures())
	fmt.Fprintf(w, "dead features: %v\n", a.DeadFeatures())
	return nil
}

// RunE3 validates the paper's two products plus counter-cases, and the
// 2-VM partitioning including its 3-VM infeasibility bound.
func RunE3(w io.Writer) error {
	model, err := runningexample.Model()
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		cfg  featmodel.Configuration
		want bool
	}{
		{"Fig1b (cpu@0, uarts, veth0)", runningexample.VM1Config(), true},
		{"Fig1c (cpu@1, uarts, veth1)", runningexample.VM2Config(), true},
		{"both CPUs", featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "cpu@1", "uarts", "uart0"), false},
		{"veth0 without cpu@0", featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@1", "uarts", "uart0", "vEthernet", "veth0"), false},
	}
	for _, c := range cases {
		got := model.Conflict(c.cfg) == nil
		fmt.Fprintf(w, "%-28s valid=%v want=%v ok=%v\n", c.name, got, c.want, got == c.want)
	}
	for _, k := range []int{2, 3} {
		mm, err := featmodel.NewMultiModel(model, k)
		if err != nil {
			return err
		}
		ma, err := featmodel.NewMultiAnalyzer(mm)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d VMs feasible=%v (paper: max 2 VMs)\n", k, !ma.IsVoid())
	}
	return nil
}

// RunE4 reports delta activation and application order per VM.
func RunE4(w io.Writer) error {
	deltas, err := runningexample.Deltas()
	if err != nil {
		return err
	}
	for _, vm := range []struct {
		name string
		cfg  featmodel.Configuration
	}{
		{"VM1 (Fig. 1b)", runningexample.VM1Config()},
		{"VM2 (Fig. 1c)", runningexample.VM2Config()},
	} {
		ordered, err := deltas.Order(vm.cfg)
		if err != nil {
			return err
		}
		names := make([]string, len(ordered))
		for i, d := range ordered {
			names[i] = d.Name
		}
		fmt.Fprintf(w, "%s: %s\n", vm.name, strings.Join(names, " < "))
	}
	return nil
}

// RunE5 contrasts the structural baseline with llhsc on the Section I-A
// address clash.
func RunE5(w io.Writer) error {
	src, inc := faultyDTS(FaultAddrOverlap)
	tree, err := dts.Parse("clash.dts", src, dts.WithIncluder(inc))
	if err != nil {
		return err
	}
	baseline := schema.StandardSet().Validate(tree)
	collisions, _ := constraints.NewSemanticChecker().Check(tree)
	fmt.Fprintf(w, "dt-schema baseline violations: %d (expected 0: the fault is invisible)\n", len(baseline))
	fmt.Fprintf(w, "llhsc collisions: %d (expected 1)\n", len(collisions))
	for _, c := range collisions {
		fmt.Fprintf(w, "  %s\n", c)
	}
	return nil
}

// RunE6 reproduces the truncation scenario: products derived without
// delta d4 must exhibit four memory banks and a collision at 0x0.
func RunE6(w io.Writer) error {
	p, err := core.RunningExample()
	if err != nil {
		return err
	}
	var kept []*delta.Delta
	for _, d := range p.Deltas.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	smaller, err := delta.NewSet(kept)
	if err != nil {
		return err
	}
	product, _, err := smaller.Apply(p.Core, runningexample.VM1Config())
	if err != nil {
		return err
	}
	regions, _ := addr.CollectRegions(product)
	memBanks := 0
	for _, r := range regions {
		if r.Kind == addr.KindMemory {
			memBanks++
		}
	}
	collisions, _ := constraints.NewSemanticChecker().Check(product)
	zero := false
	for _, c := range collisions {
		if c.Witness == 0 {
			zero = true
		}
	}
	fmt.Fprintf(w, "memory banks found: %d (paper: 4, instead of the original 2)\n", memBanks)
	fmt.Fprintf(w, "collisions: %d, witness 0x0 found: %v (paper's counterexample)\n",
		len(collisions), zero)
	return nil
}

// RunE7 runs the whole pipeline and prints the generated artifacts.
func RunE7(w io.Writer) error {
	report, err := RunningExamplePipeline()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline ok=%v violations=%d\n", report.OK(), len(report.AllViolations()))
	for _, vm := range report.VMs {
		fmt.Fprintf(w, "%s: deltas %v\n", vm.Name, vm.Trace)
	}
	fmt.Fprintf(w, "--- platform config (Listing 3) ---\n%s", report.Artifacts.PlatformC())
	fmt.Fprintf(w, "--- VM config (Listing 6) ---\n%s", report.Artifacts.ConfigC())
	fmt.Fprintf(w, "--- QEMU equivalent ---\n%s\n", strings.Join(report.Artifacts.QEMUArgs(), " "))
	return nil
}

// RunningExamplePipeline runs the paper's pipeline.
func RunningExamplePipeline() (*core.Report, error) {
	p, err := core.RunningExample()
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// RunE8 sweeps region counts for the semantic checker, comparing the
// production sweep + word tier against the single disjunctive query of
// formula (7), with the one-shot query's encoding size.
func RunE8(w io.Writer) error {
	fmt.Fprintf(w, "%8s %10s %14s %14s %12s %12s\n",
		"regions", "pairs", "per-pair", "one-query", "sat-vars", "sat-clauses")
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		regions := SyntheticRegions(n, true)
		sc := constraints.NewSemanticChecker()

		start := time.Now()
		collisions := sc.FindCollisions(regions, 32)
		perPair := time.Since(start)

		start = time.Now()
		_, any := AnyCollision(regions, 32)
		oneQuery := time.Since(start)

		if len(collisions) == 0 || !any {
			return fmt.Errorf("n=%d: planted collision not found", n)
		}

		// measure encoding size of the one-shot query
		ctx := smt.NewContext()
		solver := smt.NewSolver(ctx)
		x := ctx.BVVar("x", 32)
		for _, r := range regions {
			solver.Assert(inRegion(ctx, x, r, 32))
		}
		solver.Check()
		st := solver.Stats()
		pairs := n * (n - 1) / 2
		fmt.Fprintf(w, "%8d %10d %14s %14s %12d %12d\n",
			n, pairs, perPair.Round(time.Microsecond), oneQuery.Round(time.Microsecond),
			st.SAT.Vars, st.SAT.Clauses)
	}
	return nil
}

// AnyCollision poses a single disjunctive query — does ANY pair of
// regions overlap? This is the formulation closest to the paper's
// one-shot formula (7), over every pair i < j, and the workload of
// the E8 scaling benchmark. It applies none of the production checker's
// eligibility rules (same-node banks, virtual windows), so it assumes
// what E8's regions satisfy: each is a distinct device node, non-empty,
// and ends below 2^width.
//
// A single witness variable x is shared by all disjuncts (only one
// colliding pair needs witnessing), so hash-consing reduces the
// encoding to two comparator chains per *region* plus one small
// selector clause per pair — O(n) bit-vector logic for O(n²) pairs.
func AnyCollision(regions []addr.Region, width int) (constraints.Collision, bool) {
	if len(regions) < 2 {
		return constraints.Collision{}, false
	}
	ctx := smt.NewContext()
	solver := smt.NewSolver(ctx)
	x := ctx.BVVar("x", width)

	in := make([]*smt.Term, len(regions))
	for i, r := range regions {
		in[i] = inRegion(ctx, x, r, width)
	}
	var pairs [][2]int
	var sel []*smt.Term
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			s := ctx.BoolVar(fmt.Sprintf("sel%d", len(pairs)))
			pairs = append(pairs, [2]int{i, j})
			sel = append(sel, s)
			solver.Assert(ctx.Implies(s, ctx.And(in[i], in[j])))
		}
	}
	solver.Assert(ctx.Or(sel...))
	if solver.Check() != sat.Sat {
		return constraints.Collision{}, false
	}
	for k, pair := range pairs {
		if solver.BoolValue(sel[k]) {
			return constraints.Collision{
				A: regions[pair[0]], B: regions[pair[1]],
				Witness: solver.BVValue(x),
			}, true
		}
	}
	return constraints.Collision{}, false
}

// inRegion encodes b <= x ∧ x < b + s for region r at the given width,
// the per-region conjunct of the overlap queries of E8 and E11.
func inRegion(ctx *smt.Context, x *smt.Term, r addr.Region, width int) *smt.Term {
	return ctx.And(
		ctx.Ule(ctx.BVConst(width, r.Base), x),
		ctx.Ult(x, ctx.BVConst(width, r.Base+r.Size)),
	)
}

// RunE9 sweeps feature-model sizes for the SAT-backed analyses.
func RunE9(w io.Writer) error {
	fmt.Fprintf(w, "%10s %10s %12s %12s %14s\n",
		"features", "void", "void-time", "dead-time", "count100-time")
	for _, n := range []int{10, 30, 100, 300, 1000} {
		m := SyntheticFeatureModel(n, 42)
		start := time.Now()
		a := featmodel.NewAnalyzer(m)
		void := a.IsVoid()
		voidTime := time.Since(start)

		start = time.Now()
		dead := a.DeadFeatures()
		deadTime := time.Since(start)

		start = time.Now()
		count, _ := a.CountProducts(100)
		countTime := time.Since(start)

		fmt.Fprintf(w, "%10d %10v %12s %12s %14s  (dead=%d, count<=%d)\n",
			len(m.Names()), void, voidTime.Round(time.Microsecond),
			deadTime.Round(time.Microsecond), countTime.Round(time.Microsecond),
			len(dead), count)
	}
	return nil
}

// RunE10 prints the fault-detection matrix.
func RunE10(w io.Writer) error {
	matrix, err := DetectionMatrix()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %10s %10s %8s %8s\n", "fault", "dtc-lint", "dt-schema", "llhsc", "bounded")
	for _, d := range matrix {
		fmt.Fprintf(w, "%-28s %10v %10v %8v %8v\n", d.Fault, d.DtcLint, d.Baseline, d.LLHSC, d.Bounded)
	}
	return nil
}

// RunE11 sweeps delta-chain length: application cost plus the cost of
// re-checking after every delta, one fresh solver per step versus the
// production semantic checker (sweep + word tier).
func RunE11(w io.Writer) error {
	fmt.Fprintf(w, "%8s %12s %16s %16s\n", "deltas", "apply", "recheck-fresh", "recheck-sweep")
	for _, k := range []int{4, 16, 64, 128} {
		coreTree, set, err := SyntheticDeltaChain(k)
		if err != nil {
			return err
		}
		cfg := featmodel.ConfigOf()

		start := time.Now()
		product, _, err := set.Apply(coreTree, cfg)
		if err != nil {
			return err
		}
		applyTime := time.Since(start)

		regions, err := addr.CollectRegions(product)
		if err != nil {
			return err
		}
		sort.Slice(regions, func(i, j int) bool { return regions[i].Base < regions[j].Base })

		// Simulated workflow: after each delta adds a region, the
		// product is re-checked. "fresh" poses the new region's O(k)
		// pair queries to a brand-new solver, paying solver
		// construction and re-blasting on every delta step; "sweep"
		// re-runs the production checker over all regions so far.
		start = time.Now()
		for i := 1; i < len(regions); i++ {
			freshRecheckStep(regions[:i], regions[i], 32)
		}
		fresh := time.Since(start)

		sc := constraints.NewSemanticChecker()
		start = time.Now()
		for i := 2; i <= len(regions); i++ {
			sc.FindCollisions(regions[:i], 32)
		}
		sweep := time.Since(start)

		fmt.Fprintf(w, "%8d %12s %16s %16s\n", k,
			applyTime.Round(time.Microsecond), fresh.Round(time.Microsecond),
			sweep.Round(time.Microsecond))
	}
	return nil
}

// freshRecheckStep checks one new region against all prior regions
// with a brand-new solver (no reuse across delta steps). Returns the
// number of collisions found.
func freshRecheckStep(prior []addr.Region, next addr.Region, width int) int {
	ctx := smt.NewContext()
	solver := smt.NewSolver(ctx)
	x := ctx.BVVar("x", width)
	collisions := 0
	for _, r := range prior {
		solver.Push()
		solver.Assert(inRegion(ctx, x, next, width))
		solver.Assert(inRegion(ctx, x, r, width))
		if solver.Check() == sat.Sat {
			collisions++
		}
		solver.Pop()
	}
	return collisions
}

// RunE12 sweeps the number of VMs of a synthetic board through the full
// pipeline: allocation + syntactic + semantic checks for every VM plus
// the platform, and the Bao artifact generation. The board has as many
// CPUs (exclusive resources) and UARTs as VMs.
func RunE12(w io.Writer) error {
	fmt.Fprintf(w, "%6s %8s %10s %12s %14s\n", "vms", "cpus", "uarts", "pipeline", "ok")
	for _, k := range []int{2, 4, 8, 16} {
		pipeline, err := SyntheticProductLine(k, k, k)
		if err != nil {
			return err
		}
		start := time.Now()
		report, err := pipeline.Run()
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%6d %8d %10d %12s %14v\n",
			k, k, k, elapsed.Round(time.Millisecond), report.OK())
		if !report.OK() {
			return fmt.Errorf("k=%d: unexpected violations: %v", k, report.AllViolations())
		}
	}
	// the infeasibility bound: one more VM than CPUs must be rejected
	pipeline, err := SyntheticProductLine(4, 4, 4)
	if err != nil {
		return err
	}
	mm, err := featmodel.NewMultiModel(pipeline.Model, 5)
	if err != nil {
		return err
	}
	ma, err := featmodel.NewMultiAnalyzer(mm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "5 VMs over 4 CPUs feasible=%v (expected false)\n", !ma.IsVoid())
	return nil
}
