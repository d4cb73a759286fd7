package delta_test

// ApplyContext derives products by path copying: a product shares every
// node no operation writes with the core. These tests hold it to the
// deep-clone derivation it replaced, kept here as the oracle, over the
// running example, E6, generated conform cases, overlay-derived sets, a
// removal line and hand-built fresh-subtree edits: equal Print, equal
// OriginDump, equal trace and an equal ApplyError. They also require
// the core and every delta fragment, which products share too, to print
// and dump unchanged after every derivation, including derivations
// running concurrently from one core.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llhsc/internal/conform"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

// oracleApply is the deep-clone derivation: clone the whole core, then
// apply each delta's operations in place.
func oracleApply(s *delta.Set, core *dts.Tree, cfg featmodel.Configuration) (*dts.Tree, []string, error) {
	ordered, err := s.Order(cfg)
	if err != nil {
		return nil, nil, err
	}
	tree := core.Clone()
	var trace []string
	for _, d := range ordered {
		if err := oracleApplyDelta(tree, d); err != nil {
			return nil, trace, err
		}
		trace = append(trace, d.Name)
	}
	return tree, trace, nil
}

func oracleApplyDelta(tree *dts.Tree, d *delta.Delta) error {
	for _, op := range d.Ops {
		fail := func(format string, args ...interface{}) error {
			return &delta.ApplyError{Delta: d.Name, Op: op.Kind, Target: op.Target,
				Msg: fmt.Sprintf(format, args...)}
		}
		target, parent := oracleResolve(tree, op.Target)
		if target == nil {
			return fail("target node not found")
		}
		switch op.Kind {
		case delta.OpAdds:
			for _, p := range op.Fragment.Properties {
				if target.Property(p.Name) != nil {
					return fail("property %s already exists", p.Name)
				}
				np := p.Clone()
				np.Origin.Delta = d.Name
				target.SetProperty(np)
			}
			for _, c := range op.Fragment.Children {
				if target.Child(c.Name) != nil {
					return fail("node %s already exists", c.Name)
				}
				nc := c.Clone()
				oracleStamp(nc, d.Name)
				target.Children = append(target.Children, nc)
			}
		case delta.OpModifies:
			frag := op.Fragment.Clone()
			oracleStamp(frag, d.Name)
			frag.Name = target.Name
			target.Merge(frag)
		case delta.OpRemovesNode:
			if parent == nil {
				return fail("cannot remove the root node")
			}
			parent.RemoveChild(target.Name)
		case delta.OpRemovesProperty:
			if !target.RemoveProperty(op.PropName) {
				return fail("property %s not found", op.PropName)
			}
		}
	}
	return nil
}

// oracleResolve returns the target node and its parent (nil for the
// root): absolute paths directly, "&label" and bare names as the first
// depth-first match.
func oracleResolve(t *dts.Tree, target string) (node, parent *dts.Node) {
	if strings.HasPrefix(target, "/") {
		node = t.Root
		if target == "/" {
			return node, nil
		}
		for _, name := range strings.Split(strings.Trim(target, "/"), "/") {
			if parent, node = node, node.Child(name); node == nil {
				return nil, nil
			}
		}
		return node, parent
	}
	match := func(n *dts.Node) bool { return n.Name == target }
	if label, isRef := strings.CutPrefix(target, "&"); isRef {
		match = func(n *dts.Node) bool { return n.Label == label }
	}
	var first func(n, parent *dts.Node) (*dts.Node, *dts.Node)
	first = func(n, parent *dts.Node) (*dts.Node, *dts.Node) {
		if match(n) {
			return n, parent
		}
		for _, c := range n.Children {
			if m, p := first(c, n); m != nil {
				return m, p
			}
		}
		return nil, nil
	}
	return first(t.Root, nil)
}

func oracleStamp(n *dts.Node, name string) {
	n.Origin.Delta = name
	for _, p := range n.Properties {
		p.Origin.Delta = name
	}
	for _, c := range n.Children {
		oracleStamp(c, name)
	}
}

// applyCase is one derivation to compare: a delta set, a core and a
// configuration.
type applyCase struct {
	name string
	set  *delta.Set
	core *dts.Tree
	cfg  featmodel.Configuration
}

// derived is ApplyContext's outcome for one case.
type derived struct {
	tree  *dts.Tree
	trace []string
	err   error
}

// checkAgainstOracle compares got, derived earlier, with the oracle's
// derivation of the same case. It reports whether the oracle failed.
func checkAgainstOracle(t *testing.T, c applyCase, got derived) (oracleErr bool) {
	t.Helper()
	want, wantTrace, wantErr := oracleApply(c.set, c.core, c.cfg)
	if !reflect.DeepEqual(got.err, wantErr) {
		t.Errorf("%s: error %v, oracle %v", c.name, got.err, wantErr)
		return wantErr != nil
	}
	if !reflect.DeepEqual(got.trace, wantTrace) {
		t.Errorf("%s: trace %v, oracle %v", c.name, got.trace, wantTrace)
	}
	if wantErr != nil {
		return true
	}
	if g, w := got.tree.Print(), want.Print(); g != w {
		t.Errorf("%s: Print differs from the oracle\n got:\n%s\nwant:\n%s", c.name, g, w)
	}
	if g, w := got.tree.OriginDump(), want.OriginDump(); g != w {
		t.Errorf("%s: OriginDump differs from the oracle\n got: %q\nwant: %q", c.name, g, w)
	}
	return false
}

// snapshot is a tree's Print and OriginDump before any derivation.
type snapshot struct{ print, dump string }

func snapshotOf(t *dts.Tree) snapshot { return snapshot{t.Print(), t.OriginDump()} }

// snapshots holds every core and every delta fragment of a set of
// cases, as they were before any derivation: products share both, so
// neither may change.
type snapshots struct {
	cores map[*dts.Tree]snapshot
	frags map[*dts.Node]snapshot
}

func takeSnapshots(cases []applyCase) snapshots {
	snaps := snapshots{make(map[*dts.Tree]snapshot), make(map[*dts.Node]snapshot)}
	for _, c := range cases {
		if _, ok := snaps.cores[c.core]; !ok {
			snaps.cores[c.core] = snapshotOf(c.core)
		}
		for _, d := range c.set.Deltas {
			for _, op := range d.Ops {
				if f := op.Fragment; f != nil {
					if _, ok := snaps.frags[f]; !ok {
						snaps.frags[f] = snapshotOf(&dts.Tree{Root: f})
					}
				}
			}
		}
	}
	return snaps
}

func checkCoresUnchanged(t *testing.T, snaps snapshots) {
	t.Helper()
	for core, s := range snaps.cores {
		if now := snapshotOf(core); now != s {
			t.Fatalf("a derivation wrote its core:\nbefore:\n%s\nafter:\n%s", s.print, now.print)
		}
	}
	for frag, s := range snaps.frags {
		if now := snapshotOf(&dts.Tree{Root: frag}); now != s {
			t.Fatalf("a derivation wrote a delta fragment:\nbefore:\n%s%s\nafter:\n%s%s", s.print, s.dump, now.print, now.dump)
		}
	}
}

func mustParse(t *testing.T, name, src string) *dts.Tree {
	t.Helper()
	tree, err := dts.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tree
}

// runningExampleCases covers every product of the running example and
// every platform union of two products, with all six deltas and (E6)
// without d4.
func runningExampleCases(t *testing.T) []applyCase {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, _, products := runningExampleParts(t)
	var kept []*delta.Delta
	for _, d := range set.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	e6, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []featmodel.Configuration
	for i, p := range products {
		cfgs = append(cfgs, featmodel.ConfigOf(p...))
		for _, q := range products[i+1:] {
			cfgs = append(cfgs, featmodel.PlatformUnion([]featmodel.Configuration{
				featmodel.ConfigOf(p...), featmodel.ConfigOf(q...)}))
		}
	}
	var cases []applyCase
	for _, cfg := range cfgs {
		cases = append(cases,
			applyCase{"example " + strings.Join(cfg.Sorted(), ","), set, core, cfg},
			applyCase{"E6 " + strings.Join(cfg.Sorted(), ","), e6, core, cfg})
	}
	return cases
}

// conformCases covers every configuration of the conform feature
// alphabet for each generated case of the given seeds.
func conformCases(t *testing.T, seeds int64) []applyCase {
	var cases []applyCase
	for seed := int64(0); seed < seeds; seed++ {
		c := conform.GenerateCase(seed)
		if c.Deltas == "" {
			continue
		}
		core, err := conform.ParseOracle("gen.dts", c.Source)
		if err != nil {
			t.Fatalf("seed %d: core does not parse: %v", seed, err)
		}
		set, err := delta.Parse("gen.deltas", c.Deltas)
		if err != nil {
			t.Fatalf("seed %d: deltas do not parse: %v", seed, err)
		}
		for mask := 0; mask < 1<<len(conform.Features); mask++ {
			cfg := make(featmodel.Configuration)
			for i, f := range conform.Features {
				if mask&(1<<i) != 0 {
					cfg[f] = true
				}
			}
			cases = append(cases, applyCase{fmt.Sprintf("seed %d cfg %v", seed, cfg.Sorted()), set, core, cfg})
		}
	}
	return cases
}

// overlayCases derives each corpus overlay, as a FromOverlay set, onto
// every corpus base, applied and not applied. Bases the overlay's
// targets are missing from give ApplyErrors.
func overlayCases(t *testing.T) []applyCase {
	dir := "../../testdata/corpus"
	popts := preproc.Options{IncludePaths: []string{dir, filepath.Join(dir, "include")}}
	parse := func(name string) *dts.Tree {
		tree, err := preproc.ParseFile(filepath.Join(dir, name), popts, dts.WithIncluder(dts.DirIncluder(dir)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tree
	}
	bases := []*dts.Tree{parse("board-alpha.dts"), parse("board-beta.dts"), parse("memmap.dts")}
	var cases []applyCase
	for _, name := range []string{"uart-overlay.dtso", "sensor-overlay.dtso"} {
		set, err := delta.FromOverlay(name, parse(name), "OVERLAY")
		if err != nil {
			t.Fatal(err)
		}
		for i, base := range bases {
			for _, cfg := range []featmodel.Configuration{featmodel.ConfigOf("OVERLAY"), {}} {
				cases = append(cases, applyCase{fmt.Sprintf("%s on base %d %v", name, i, cfg.Sorted()), set, base, cfg})
			}
		}
	}
	return cases
}

// removalLine is the board of the many-VM synthetic line (memory, 8
// CPUs under /cpus, 25 UARTs under the root, each with its usual
// properties) with one bare-name removal delta per CPU and UART,
// guarded by the feature's absence: each product keeps a few devices.
func removalLine(t testing.TB) (*delta.Set, *dts.Tree) {
	core := dts.NewTree()
	prop := func(n *dts.Node, name string, v dts.Value) {
		n.SetProperty(&dts.Property{Name: name, Value: v})
	}
	prop(core.Root, "#address-cells", dts.CellsValue(1))
	prop(core.Root, "#size-cells", dts.CellsValue(1))
	prop(core.Root, "compatible", dts.StringValueOf("llhsc,bigboard"))
	mem := core.Root.EnsureChild("memory@40000000")
	prop(mem, "device_type", dts.StringValueOf("memory"))
	prop(mem, "reg", dts.CellsValue(0x40000000, 0x40000000))
	cpus := core.Root.EnsureChild("cpus")
	prop(cpus, "#address-cells", dts.CellsValue(1))
	prop(cpus, "#size-cells", dts.CellsValue(0))
	var deltas []*delta.Delta
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cpu@%d", i)
		cpu := cpus.EnsureChild(name)
		prop(cpu, "device_type", dts.StringValueOf("cpu"))
		prop(cpu, "compatible", dts.StringValueOf("arm,cortex-a53"))
		prop(cpu, "enable-method", dts.StringValueOf("psci"))
		prop(cpu, "reg", dts.CellsValue(uint32(i)))
		deltas = append(deltas, &delta.Delta{
			Name: fmt.Sprintf("rm_cpu%d", i),
			When: featmodel.Not(featmodel.Var(name)),
			Ops:  []delta.Operation{{Kind: delta.OpRemovesNode, Target: name}},
		})
	}
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("uart@%x", 0x10000000+i*0x10000)
		u := core.Root.EnsureChild(name)
		u.Label = fmt.Sprintf("uart%d", i)
		prop(u, "compatible", dts.StringValueOf("ns16550a"))
		prop(u, "reg", dts.CellsValue(uint32(0x10000000+i*0x10000), 0x1000))
		deltas = append(deltas, &delta.Delta{
			Name: fmt.Sprintf("rm_uart%d", i),
			When: featmodel.Not(featmodel.Var(u.Label)),
			Ops:  []delta.Operation{{Kind: delta.OpRemovesNode, Target: name}},
		})
	}
	set, err := delta.NewSet(deltas)
	if err != nil {
		t.Fatal(err)
	}
	return set, core
}

func removalLineCases(t *testing.T) []applyCase {
	set, core := removalLine(t)
	var cases []applyCase
	for vm := 0; vm < 8; vm++ {
		cfg := featmodel.ConfigOf(fmt.Sprintf("cpu@%d", vm), fmt.Sprintf("uart%d", vm), fmt.Sprintf("uart%d", vm+8))
		cases = append(cases, applyCase{fmt.Sprintf("removal line vm %d", vm), set, core, cfg})
	}
	return append(cases, applyCase{"removal line, nothing kept", set, core, featmodel.Configuration{}})
}

// freshSubtreeCases edit inside a subtree an earlier delta added, so
// paths run through nodes the derivation cloned from a fragment rather
// than copied from the core: nested modifies (with delete markers),
// property and node removals, adds into the added subtree, and a
// modifies of "/" that descends through core and added nodes alike.
// A bare-name target with two matches pins the depth-first first match.
func freshSubtreeCases(t *testing.T) []applyCase {
	core := mustParse(t, "core.dts", `/dts-v1/;
/ {
	soc {
		serial@0 { status = "disabled"; clock = <1>; };
		serial@1 { status = "disabled"; };
		ext { port { id = <1>; }; };
	};
	memory@0 { reg = <0 0x1000>; };
	port { id = <2>; };
};
`)
	frag := func(src string) *dts.Node {
		n, err := dts.ParseFragment("frag.dtsi", "frag", "{"+src+"}")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	op := func(kind delta.OpKind, target string, fragment string) delta.Operation {
		o := delta.Operation{Kind: kind, Target: target}
		if fragment != "" {
			o.Fragment = frag(fragment)
		}
		return o
	}
	deltas := []*delta.Delta{
		{Name: "mark_port", Ops: []delta.Operation{op(delta.OpModifies, "port", `marked;`)}},
		{Name: "add_bus", Ops: []delta.Operation{op(delta.OpAdds, "/soc",
			`bus { gpio@0 { lines = <8>; sub { x = <1>; }; }; gpio@1 { lines = <4>; }; };`)}},
		{Name: "tune_bus", After: []string{"add_bus"}, When: featmodel.Var("fa"), Ops: []delta.Operation{
			op(delta.OpModifies, "/soc/bus", `gpio@0 { lines = <16>; sub { /delete-property/ x; y = <2>; }; };`),
			{Kind: delta.OpRemovesProperty, Target: "gpio@1", PropName: "lines"},
			op(delta.OpAdds, "sub", `z = <3>; leaf { };`),
		}},
		{Name: "prune_bus", After: []string{"tune_bus"}, When: featmodel.Var("fb"), Ops: []delta.Operation{
			{Kind: delta.OpRemovesNode, Target: "/soc/bus/gpio@1"},
			op(delta.OpModifies, "/", `soc { serial@1 { status = "okay"; }; bus { /delete-node/ gpio@0; }; }; chosen { };`),
		}},
		{Name: "bad_remove", After: []string{"prune_bus"}, When: featmodel.Var("fc"), Ops: []delta.Operation{
			{Kind: delta.OpRemovesProperty, Target: "/soc/serial@0", PropName: "clock"},
			{Kind: delta.OpRemovesProperty, Target: "/soc/serial@0", PropName: "clock"},
		}},
	}
	set, err := delta.NewSet(deltas)
	if err != nil {
		t.Fatal(err)
	}
	var cases []applyCase
	for mask := 0; mask < 8; mask++ {
		cfg := make(featmodel.Configuration)
		for i, f := range []string{"fa", "fb", "fc"} {
			if mask&(1<<i) != 0 {
				cfg[f] = true
			}
		}
		cases = append(cases, applyCase{fmt.Sprintf("fresh subtree %v", cfg.Sorted()), set, core, cfg})
	}
	return cases
}

func allApplyCases(t *testing.T) []applyCase {
	cases := runningExampleCases(t)
	cases = append(cases, conformCases(t, 320)...)
	cases = append(cases, overlayCases(t)...)
	cases = append(cases, removalLineCases(t)...)
	return append(cases, freshSubtreeCases(t)...)
}

// TestApplyMatchesDeepCloneOracle derives every case first, then
// compares each product with the oracle and checks every core, so a
// later derivation that wrote a node an earlier product shares shows
// up too.
func TestApplyMatchesDeepCloneOracle(t *testing.T) {
	cases := allApplyCases(t)
	snaps := takeSnapshots(cases)
	got := make([]derived, len(cases))
	for i, c := range cases {
		got[i].tree, got[i].trace, got[i].err = c.set.ApplyContext(context.Background(), c.core, c.cfg, 0)
	}
	checkCoresUnchanged(t, snaps)
	errs := 0
	for i, c := range cases {
		if checkAgainstOracle(t, c, got[i]) {
			errs++
		}
	}
	t.Logf("%d cases, %d derivation errors", len(cases), errs)
	if len(cases) < 2500 || errs == 0 {
		t.Fatalf("%d cases, %d derivation errors: the corpus lost coverage", len(cases), errs)
	}
	checkCoresUnchanged(t, snaps)
}

// TestConcurrentApplySharesCore derives the products of each core
// concurrently; under -race, any write to a shared node is reported.
func TestConcurrentApplySharesCore(t *testing.T) {
	cases := runningExampleCases(t)
	cases = append(cases, conformCases(t, 40)...)
	cases = append(cases, removalLineCases(t)...)
	cases = append(cases, freshSubtreeCases(t)...)
	snaps := takeSnapshots(cases)
	got := make([]derived, len(cases))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cases); i += 4 {
				c := cases[i]
				got[i].tree, got[i].trace, got[i].err = c.set.ApplyContext(context.Background(), c.core, c.cfg, 0)
			}
		}()
	}
	wg.Wait()
	checkCoresUnchanged(t, snaps)
	for i, c := range cases {
		checkAgainstOracle(t, c, got[i])
	}
}

// TestApplyContextAllocs bounds deriving one VM of the removal line (31
// of 33 deltas active): ordering plus copying the root and /cpus, not a
// clone of the core.
func TestApplyContextAllocs(t *testing.T) {
	set, core := removalLine(t)
	cfg := featmodel.ConfigOf("cpu@0", "uart0")
	if _, trace, err := set.Apply(core, cfg); err != nil || len(trace) != 31 {
		t.Fatalf("Apply = %d deltas, %v; want 31", len(trace), err)
	}
	const bound = 32
	if got := testing.AllocsPerRun(100, func() { set.Apply(core, cfg) }); got > bound {
		t.Errorf("ApplyContext allocates %.0f times per product, want <= %d", got, bound)
	}
}

// BenchmarkApplyContext derives one VM of the removal line.
func BenchmarkApplyContext(b *testing.B) {
	set, core := removalLine(b)
	cfg := featmodel.ConfigOf("cpu@0", "uart0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := set.Apply(core, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
