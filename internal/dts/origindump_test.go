package dts_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

// originDumpTree builds a small tree with one delta-stamped property.
func originDumpTree(deltaName string) *dts.Tree {
	t := dts.NewTree()
	uart := t.Root.EnsureChild("uart@1000")
	uart.SetProperty(&dts.Property{
		Name:   "compatible",
		Value:  dts.StringValueOf("ns16550a"),
		Origin: dts.Origin{Delta: deltaName},
	})
	return t
}

func TestOriginDumpDistinguishesBlame(t *testing.T) {
	a := originDumpTree("alpha")
	b := originDumpTree("beta")
	if a.Print() != b.Print() {
		t.Fatal("canonical text should be identical regardless of origins")
	}
	if a.OriginDump() == b.OriginDump() {
		t.Error("trees blaming different deltas must produce different origin dumps")
	}
	if a.OriginDump() != originDumpTree("alpha").OriginDump() {
		t.Error("OriginDump is not deterministic")
	}
}

func TestOriginDumpSkipsZeroOrigins(t *testing.T) {
	tr := dts.NewTree()
	tr.Root.EnsureChild("memory@0")
	if d := tr.OriginDump(); d != "" {
		t.Errorf("tree without origins dumped %q, want empty", d)
	}
}

func TestOriginDumpLengthPrefixesFields(t *testing.T) {
	// A delta name that embeds another record's syntax must not allow
	// two different origin sets to collide.
	a := originDumpTree("x@1\n4:node")
	b := originDumpTree("x")
	if a.OriginDump() == b.OriginDump() {
		t.Error("length prefixing failed: crafted delta name collides")
	}
	if !strings.Contains(a.OriginDump(), "x@1") {
		t.Error("delta name missing from dump")
	}
}

// oracleOriginDump is the fmt-based OriginDump that persisted
// check-cache keys were computed with; OriginDump must reproduce it
// byte for byte.
func oracleOriginDump(t *dts.Tree) string {
	var b strings.Builder
	record := func(kind, path string, o dts.Origin) {
		if o == (dts.Origin{}) {
			return
		}
		for _, f := range []string{kind, path, o.File, o.Delta} {
			fmt.Fprintf(&b, "%d:%s", len(f), f)
		}
		fmt.Fprintf(&b, "@%d\n", o.Line)
	}
	walk := func(root *dts.Node) {
		root.Walk(func(path string, n *dts.Node) bool {
			record("node", path, n.Origin)
			for _, p := range n.Properties {
				record("prop", path+"#"+p.Name, p.Origin)
			}
			return true
		})
	}
	walk(t.Root)
	for i, f := range t.Fragments {
		fmt.Fprintf(&b, "frag%d:%d:%s\n", i, len(f.Ref), f.Ref)
		walk(f.Node)
	}
	return b.String()
}

// TestOriginDumpMatchesOracle compares OriginDump with the fmt oracle on
// parsed files (origins with file names and lines), every product of
// the running example (delta blame), /plugin/ overlays (fragments), and
// hand-built trees whose root and fragment nodes are not named "/".
func TestOriginDumpMatchesOracle(t *testing.T) {
	trees := map[string]*dts.Tree{}
	customsbc, err := dts.ParseFile("../../testdata/customsbc.dts",
		dts.WithIncluder(dts.DirIncluder("../../testdata")))
	if err != nil {
		t.Fatal(err)
	}
	trees["customsbc.dts"] = customsbc

	corpus := "../../testdata/corpus"
	popts := preproc.Options{IncludePaths: []string{corpus, filepath.Join(corpus, "include")}}
	files, err := filepath.Glob(filepath.Join(corpus, "*.dts*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	plugins := 0
	for _, f := range files {
		tree, err := preproc.ParseFile(f, popts, dts.WithIncluder(dts.DirIncluder(corpus)))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(tree.Fragments) > 0 {
			plugins++
		}
		trees[filepath.Base(f)] = tree
	}
	if plugins == 0 {
		t.Fatal("no corpus overlay has fragments")
	}

	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	products, _ := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	for _, p := range products {
		product, _, err := set.Apply(core, featmodel.ConfigOf(p...))
		if err != nil {
			t.Fatalf("product %v: %v", p, err)
		}
		trees[fmt.Sprint("product ", p)] = product
	}
	if len(products) == 0 || !strings.Contains(trees[fmt.Sprint("product ", products[0])].OriginDump(), ":d1@") {
		t.Fatal("running-example products carry no delta blame")
	}

	odd := originDumpTree("x@1\n4:node")
	odd.Root.Name = "root"
	odd.Root.Origin = dts.Origin{File: "a b.dts", Line: -3}
	odd.Fragments = []dts.OverlayFragment{
		{Ref: "uart0", Node: originDumpTree("frag").Root},
		{Ref: "/soc/serial@0", IsPath: true, Node: &dts.Node{Name: "", Origin: dts.Origin{Line: 7},
			Children: []*dts.Node{{Name: "", Origin: dts.Origin{Delta: "d"}}}}},
	}
	trees["hand-built"] = odd

	for name, tree := range trees {
		if got, want := tree.OriginDump(), oracleOriginDump(tree); got != want {
			t.Errorf("%s: OriginDump differs from the fmt oracle\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// BenchmarkOriginDump dumps one product of a 24-UART delta line.
func BenchmarkOriginDump(b *testing.B) {
	core := dts.NewTree()
	var deltas []*delta.Delta
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("uart@%x", 0x10000000+i*0x1000)
		u := core.Root.EnsureChild(name)
		u.Origin = dts.Origin{File: "board.dts", Line: 10 + i}
		u.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(uint32(0x10000000+i*0x1000), 0x1000),
			Origin: dts.Origin{File: "board.dts", Line: 11 + i}})
		frag := &dts.Node{Properties: []*dts.Property{{Name: "status", Value: dts.StringValueOf("okay")}}}
		deltas = append(deltas, &delta.Delta{Name: fmt.Sprintf("en_uart%d", i),
			Ops: []delta.Operation{{Kind: delta.OpModifies, Target: name, Fragment: frag}}})
	}
	set, err := delta.NewSet(deltas)
	if err != nil {
		b.Fatal(err)
	}
	product, _, err := set.Apply(core, featmodel.Configuration{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		product.OriginDump()
	}
}
