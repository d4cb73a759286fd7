package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// TestAllExperimentsRun runs the paper's experiments as known answers:
// each subtest asserts the measured cells EXPERIMENTS.md quotes for its
// experiment (timings aside), so a change that moves one fails here.
// E8, E9, E11 and E13 are timings only; their Benchmark twins run them.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range []struct {
		id  string
		run func(*testing.T)
	}{
		{"e1", e1ParseRoundTrip},
		{"e2", e2InferredModel},
		{"e3", e3Products},
		{"e4", e4DeltaOrder},
		{"e5", e5AddressClash},
		{"e6", e6Truncation},
		{"e7", e7Pipeline},
		{"e10", e10MatchesExperimentsTable},
		{"e12", e12MoreVMsThanCPUsInfeasible},
		{"e16", e16LiftedMatchesEnumeration},
	} {
		t.Run(e.id, e.run)
	}
}

// e1ParseRoundTrip: Listings 1+2 parse with the cpus.dtsi include
// resolved, have the five device nodes, and print → parse is stable.
func e1ParseRoundTrip(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if cpus := tree.Lookup("/cpus"); cpus == nil || len(cpus.Children) != 2 {
		t.Errorf("/cpus = %v, want 2 CPUs", cpus)
	}
	if cpu := tree.Lookup("/cpus/cpu@0"); cpu != nil && cpu.Origin.File != "cpus.dtsi" {
		t.Errorf("/cpus/cpu@0 comes from %q, want the included cpus.dtsi", cpu.Origin.File)
	}
	printed := tree.Print()
	reparsed, err := dts.Parse("roundtrip.dts", printed)
	if err != nil {
		t.Fatalf("printed tree does not parse: %v", err)
	}
	if again := reparsed.Print(); again != printed {
		t.Errorf("print → parse → print is not stable:\n%s\nthen:\n%s", printed, again)
	}
	for _, path := range []string{"/memory@40000000", "/cpus/cpu@0", "/cpus/cpu@1", "/uart@20000000", "/uart@30000000"} {
		if tree.Lookup(path) == nil || reparsed.Lookup(path) == nil {
			t.Errorf("%s missing from the parsed or the reparsed tree", path)
		}
	}
}

// e2InferredModel: the Fig. 1a model inferred from Listing 1 plus
// the vEthernet group has exactly the paper's 12 products, is not
// void, has the root as a core feature and no dead feature.
func e2InferredModel(t *testing.T) {
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := featmodel.InferFromDTS(tree, featmodel.InferOptions{RootName: "CustomSBC"})
	if err != nil {
		t.Fatal(err)
	}
	model, err := inferred.AddVirtualGroup("vEthernet", featmodel.GroupXor,
		[]string{"veth0", "veth1"},
		featmodel.MustParseExpr("veth0 -> cpu@0"),
		featmodel.MustParseExpr("veth1 -> cpu@1"))
	if err != nil {
		t.Fatal(err)
	}
	a := featmodel.NewAnalyzer(model)
	if n, complete := a.CountProducts(0); n != runningexample.ProductCount || !complete {
		t.Errorf("products = %d (complete %v), want the paper's %d", n, complete, runningexample.ProductCount)
	}
	if a.IsVoid() {
		t.Error("model is void")
	}
	if core := a.CoreFeatures(); !slices.Contains(core, "CustomSBC") {
		t.Errorf("core features %v lack the root CustomSBC", core)
	}
	if dead := a.DeadFeatures(); len(dead) != 0 {
		t.Errorf("dead features = %v, want none", dead)
	}
}

// e3Products: the Fig. 1b/1c products are valid, both CPUs in one
// VM and veth0 without cpu@0 are not; two VMs partition the board and
// three do not; pinning veth0/veth1 assigns cpu@0/cpu@1.
func e3Products(t *testing.T) {
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  featmodel.Configuration
		want bool
	}{
		{"Fig. 1b", runningexample.VM1Config(), true},
		{"Fig. 1c", runningexample.VM2Config(), true},
		{"both CPUs", featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@0", "cpu@1", "uarts", "uart0"), false},
		{"veth0 without cpu@0", featmodel.ConfigOf("CustomSBC", "memory", "cpus", "cpu@1", "uarts", "uart0", "vEthernet", "veth0"), false},
	} {
		if got := model.Conflict(c.cfg) == nil; got != c.want {
			t.Errorf("%s: valid = %v, want %v", c.name, got, c.want)
		}
	}
	for k, want := range map[int]bool{2: true, 3: false} {
		if got := !multiAnalyzer(t, model, k).IsVoid(); got != want {
			t.Errorf("%d VMs feasible = %v, want %v", k, got, want)
		}
	}
	configs, err := multiAnalyzer(t, model, 2).SolveAssignment([]map[string]bool{{"veth0": true}, {"veth1": true}})
	if err != nil {
		t.Fatal(err)
	}
	if !configs[0]["cpu@0"] || !configs[1]["cpu@1"] {
		t.Errorf("veth pins assigned %v and %v, want cpu@0 and cpu@1", configs[0].Sorted(), configs[1].Sorted())
	}
}

func multiAnalyzer(t *testing.T, model *featmodel.Model, vms int) *featmodel.MultiAnalyzer {
	t.Helper()
	mm, err := featmodel.NewMultiModel(model, vms)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := featmodel.NewMultiAnalyzer(mm)
	if err != nil {
		t.Fatal(err)
	}
	return ma
}

// e4DeltaOrder: Listing 4's deltas activate and order per VM as
// EXPERIMENTS.md records (d3 first, the completion deltas after d4).
func e4DeltaOrder(t *testing.T) {
	deltas, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []struct {
		name string
		cfg  featmodel.Configuration
		want string
	}{
		{"VM1", runningexample.VM1Config(), "d3 < d1 < d4 < d5 < d6 < rm_cpu1"},
		{"VM2", runningexample.VM2Config(), "d3 < d2 < d4 < d5 < d6 < rm_cpu0"},
	} {
		ordered, err := deltas.Order(vm.cfg)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ordered))
		for i, d := range ordered {
			names[i] = d.Name
		}
		if got := strings.Join(names, " < "); got != vm.want {
			t.Errorf("%s order = %s, want %s", vm.name, got, vm.want)
		}
	}
}

// e5AddressClash: the Section I-A clash parses, passes the
// structural baseline, and llhsc reports exactly one collision, the
// second memory bank against the UART at 0x60000000.
func e5AddressClash(t *testing.T) {
	src, inc := faultyDTS(FaultAddrOverlap)
	tree, err := dts.Parse("clash.dts", src, dts.WithIncluder(inc))
	if err != nil {
		t.Fatalf("dtc should accept the clash: %v", err)
	}
	if vs := schema.StandardSet().Validate(tree); len(vs) != 0 {
		t.Errorf("baseline violations = %v, want none (the fault is invisible to it)", vs)
	}
	collisions, _ := constraints.NewSemanticChecker().Check(tree)
	if len(collisions) != 1 {
		t.Fatalf("collisions = %v, want exactly 1", collisions)
	}
	c := collisions[0]
	if c.A.Path != "/memory@40000000" || c.A.Index != 1 || c.B.Path != "/uart@60000000" || c.Witness != 0x60000000 {
		t.Errorf("collision = %v, want /memory@40000000[1] × /uart@60000000 at 0x60000000", c)
	}
}

// e6Truncation: deriving the Fig. 1b product without d4 leaves its
// 64-bit memory reg read under d3's 32-bit cells: four banks instead of
// two, which the structural baseline accepts, and a collision with
// witness 0x0.
func e6Truncation(t *testing.T) {
	p, err := core.RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	var kept []*delta.Delta
	for _, d := range p.Deltas.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	smaller, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	product, _, err := smaller.Apply(p.Core, runningexample.VM1Config())
	if err != nil {
		t.Fatal(err)
	}
	if vs := schema.StandardSet().Validate(product); len(vs) != 0 {
		t.Errorf("baseline violations = %v, want none (any multiple of the cells is valid)", vs)
	}
	regions, err := addr.CollectRegions(product)
	if err != nil {
		t.Fatal(err)
	}
	banks := 0
	for _, r := range regions {
		if r.Kind == addr.KindMemory {
			banks++
		}
	}
	if banks != 4 {
		t.Errorf("memory banks = %d, want the paper's 4", banks)
	}
	collisions, violations := constraints.NewSemanticChecker().Check(product)
	zero := false
	for _, c := range collisions {
		zero = zero || c.Witness == 0
	}
	if !zero {
		t.Errorf("collisions %v have no witness at 0x0", collisions)
	}
	// The UARTs' regs were rewritten by d5 and d6, so their side of a
	// collision names that delta.
	want := map[string]string{"/uart@20000000": "d5", "/uart@30000000": "d6"}
	blamed := map[string]bool{}
	for _, v := range violations {
		if d, ok := want[v.Path]; ok {
			if v.Origin.Delta != d {
				t.Errorf("%v blamed on delta %q, want %s", v, v.Origin.Delta, d)
			}
			blamed[v.Path] = true
		}
	}
	if len(blamed) != len(want) {
		t.Errorf("UART collisions blamed: %v, want both UARTs", blamed)
	}
}

// e7Pipeline: the whole pipeline passes the running example, and
// the Listings 3 and 6 and the QEMU invocation it generates are the
// running-example goldens of internal/baogen, which pin their text.
func e7Pipeline(t *testing.T) {
	report, err := RunningExamplePipeline()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("violations: %v", report.AllViolations())
	}
	dir := filepath.Join("..", "baogen", "testdata", "golden", "running-example")
	golden := func(file string) string {
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for file, got := range map[string]string{
		"platform.c": report.Artifacts.PlatformC(),
		"config.c":   report.Artifacts.ConfigC(),
	} {
		if got != golden(file) {
			t.Errorf("pipeline's %s differs from the golden:\n%s", file, got)
		}
	}
	// qemu.txt lists the aarch64 invocation first, one argument a line.
	qemu := "# aarch64\n" + strings.Join(report.Artifacts.QEMUArgs(), "\n") + "\n# "
	if !strings.HasPrefix(golden("qemu.txt"), qemu) {
		t.Errorf("pipeline's QEMU invocation %v differs from the golden's aarch64 one", report.Artifacts.QEMUArgs())
	}
}

// TestE7EmitsListings: the pipeline's output carries the paper's facts
// about Listings 3 and 6, which the goldens do not pin on their own
// (-update rewrites them from whatever the generator emits): one
// platform with both CPUs, one config with two single-CPU VMs, and an
// aarch64 QEMU.
func TestE7EmitsListings(t *testing.T) {
	report, err := RunningExamplePipeline()
	if err != nil {
		t.Fatal(err)
	}
	platform, config := report.Artifacts.PlatformC(), report.Artifacts.ConfigC()
	for _, want := range []string{"struct platform_desc platform = {", ".cpu_num = 2,"} {
		if strings.Count(platform, want) != 1 {
			t.Errorf("platform.c has %q %d times, want once:\n%s", want, strings.Count(platform, want), platform)
		}
	}
	if n := strings.Count(config, "struct config config = {"); n != 1 {
		t.Errorf("config.c declares the config %d times, want once:\n%s", n, config)
	}
	if n := strings.Count(config, ".cpu_num = 1,"); n != 2 {
		t.Errorf("config.c has %d single-CPU VMs, want 2:\n%s", n, config)
	}
	if args := report.Artifacts.QEMUArgs(); len(args) == 0 || args[0] != "qemu-system-aarch64" {
		t.Errorf("QEMU invocation %v, want qemu-system-aarch64", args)
	}
}

// TestDetectionMatrixShape is E10: the whole fault-detection matrix of
// EXPERIMENTS.md. llhsc's "missing node dependency" cell is the
// package's checkNodeDependencies, which checks the tree's device
// complement against PlatformModel; no shipped command runs that
// check (production checks dependencies only on VM configurations,
// constraints/allocation.go).
func TestDetectionMatrixShape(t *testing.T) {
	matrix, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := []Detection{
		{Fault: FaultSyntaxError, DtcLint: true, Baseline: true, LLHSC: true},
		{Fault: FaultMissingRequired, Baseline: true, LLHSC: true},
		{Fault: FaultBadConst, Baseline: true, LLHSC: true},
		{Fault: FaultBadRegArity, Baseline: true, LLHSC: true},
		{Fault: FaultAddrOverlap, LLHSC: true},
		{Fault: FaultTruncation, LLHSC: true},
		{Fault: FaultMissingNodeDep, LLHSC: true},
		{Fault: FaultDuplicateIRQ, LLHSC: true},
		{Fault: FaultReserveOutsideRAM, LLHSC: true},
		{Fault: FaultPathologicalCNF, LLHSC: true, Bounded: true},
		{Fault: FaultDeepNesting, DtcLint: true, Baseline: true, LLHSC: true, Bounded: true},
	}
	if !reflect.DeepEqual(matrix, want) {
		t.Errorf("matrix differs from EXPERIMENTS.md:\n got %+v\nwant %+v", matrix, want)
	}
}

// e10MatchesExperimentsTable: the E10 table EXPERIMENTS.md prints is
// the matrix, row for row and mark for mark.
func e10MatchesExperimentsTable(t *testing.T) {
	matrix, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	rows := e10Table(t)
	if len(rows) != len(matrix) {
		t.Fatalf("EXPERIMENTS.md's E10 table has %d rows, the matrix %d", len(rows), len(matrix))
	}
	mark := map[bool]string{true: "✓", false: "✗"}
	for i, d := range matrix {
		want := []string{mark[d.DtcLint], mark[d.Baseline], mark[d.LLHSC], mark[d.Bounded]}
		if got := rows[i][1:]; !slices.Equal(got, want) {
			t.Errorf("EXPERIMENTS.md row %q reads %v, the matrix %v", rows[i][0], got, want)
		}
	}
}

// TestE10OutputShape: each row of EXPERIMENTS.md's E10 table is
// labelled with the name of the matrix's fault in that row, so the
// three paper rows read "address overlap", "64->32-bit truncation"
// and "missing node dependency" (the table prints the arrow as →).
func TestE10OutputShape(t *testing.T) {
	matrix, err := DetectionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	rows := e10Table(t)
	if len(rows) != len(matrix) {
		t.Fatalf("EXPERIMENTS.md's E10 table has %d rows, the matrix %d", len(rows), len(matrix))
	}
	for i, d := range matrix {
		if label := strings.ReplaceAll(rows[i][0], "→", "->"); !strings.HasPrefix(label, d.Fault.String()) {
			t.Errorf("EXPERIMENTS.md row %d is %q, want the fault %q", i, rows[i][0], d.Fault)
		}
	}
}

// e10Table returns the body rows of the first table under EXPERIMENTS.md's
// E10 heading, each as its trimmed cells: the fault, then the marks of
// dtc-lint, the dt-schema baseline, llhsc and bounded.
func e10Table(t *testing.T) [][]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## E10 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no E10 section")
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) != 5 {
			t.Fatalf("EXPERIMENTS.md E10 row %q has %d cells, want 5", line, len(cells))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatal("EXPERIMENTS.md's E10 section has no table")
	}
	return rows[2:] // header and separator
}

// e12MoreVMsThanCPUsInfeasible: the static-partitioning bound of
// E12 on the synthetic board, 4 VMs over 4 exclusive CPUs feasible and
// 5 not.
func e12MoreVMsThanCPUsInfeasible(t *testing.T) {
	pipeline, err := SyntheticProductLine(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for vms, want := range map[int]bool{4: true, 5: false} {
		if got := !multiAnalyzer(t, pipeline.Model, vms).IsVoid(); got != want {
			t.Errorf("%d VMs over 4 CPUs feasible = %v, want %v", vms, got, want)
		}
	}
}
