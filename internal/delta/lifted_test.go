package delta_test

// The lifted merged tree is only trustworthy if projecting it onto a
// configuration reproduces exactly what enumerative application
// produces. These differential tests pin Project(Lift(core), cfg)
// against Set.Apply(core, cfg), structure and OriginDump (which delta
// each node and property blames), over the paper's running example (all 12
// products), the E6 corpus (d4 omitted), and randomized conform
// corpora, and check that ActiveConflicts mirrors Apply errors.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"llhsc/internal/conform"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

func runningExampleParts(t *testing.T) (*delta.Set, *featmodel.Model, [][]string) {
	t.Helper()
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	products, complete := featmodel.NewAnalyzer(model).EnumerateProducts(0)
	if !complete {
		t.Fatal("product enumeration incomplete")
	}
	return set, model, products
}

func TestLiftProjectMatchesApplyRunningExample(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, _, products := runningExampleParts(t)
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	if len(products) != runningexample.ProductCount {
		t.Fatalf("enumerated %d products, want %d", len(products), runningexample.ProductCount)
	}
	for _, p := range products {
		cfg := featmodel.ConfigOf(p...)
		applied, _, err := set.Apply(core, cfg)
		if err != nil {
			t.Fatalf("product %v: apply: %v", p, err)
		}
		if conflicts := lifted.ActiveConflicts(cfg); len(conflicts) > 0 {
			t.Errorf("product %v: apply succeeded but lifted reports conflicts: %v", p, conflicts)
		}
		projected := lifted.Project(cfg)
		if a, b := applied.OriginDump(), projected.OriginDump(); a != b {
			t.Errorf("product %v: origin dump differs\n%s\n%s", p, a, b)
		}
		if err := conform.TreesStructurallyEqual(applied, projected); err != nil {
			t.Errorf("product %v: projection differs from application: %v\napplied:\n%s\nprojected:\n%s",
				p, err, applied.Print(), projected.Print())
		}
	}
}

// TestLiftProjectMatchesApplyE6 repeats the comparison on the paper's
// truncation corpus: the delta set without d4, whose products exhibit
// four memory banks and a collision at 0x0.
func TestLiftProjectMatchesApplyE6(t *testing.T) {
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
	smaller, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := smaller.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range products {
		cfg := featmodel.ConfigOf(p...)
		applied, _, err := smaller.Apply(core, cfg)
		if err != nil {
			t.Fatalf("product %v: apply: %v", p, err)
		}
		if err := conform.TreesStructurallyEqual(applied, lifted.Project(cfg)); err != nil {
			t.Errorf("product %v: projection differs from application: %v", p, err)
		}
	}
}

// TestLiftProjectMatchesApplyConform runs the differential comparison
// over randomized conform corpora: every configuration of the 3-feature
// space against every generated delta set.
func TestLiftProjectMatchesApplyConform(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 60; seed++ {
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
		lifted, err := set.Lift(core)
		if err != nil {
			t.Fatalf("seed %d: lift: %v", seed, err)
		}
		for mask := 0; mask < 1<<len(conform.Features); mask++ {
			cfg := make(featmodel.Configuration)
			for i, f := range conform.Features {
				if mask&(1<<i) != 0 {
					cfg[f] = true
				}
			}
			applied, _, err := set.Apply(core, cfg)
			conflicts := lifted.ActiveConflicts(cfg)
			if err != nil {
				if len(conflicts) == 0 {
					t.Errorf("seed %d cfg %v: apply failed (%v) but lifted reports no conflict",
						seed, cfg.Sorted(), err)
				}
				continue
			}
			if len(conflicts) > 0 {
				t.Errorf("seed %d cfg %v: apply succeeded but lifted reports conflicts: %v",
					seed, cfg.Sorted(), conflicts)
				continue
			}
			if a, b := applied.OriginDump(), lifted.Project(cfg).OriginDump(); a != b {
				t.Errorf("origin dump differs\n%s\n%s", a, b)
			}
			if err := conform.TreesStructurallyEqual(applied, lifted.Project(cfg)); err != nil {
				t.Errorf("seed %d cfg %v: projection differs from application: %v",
					seed, cfg.Sorted(), err)
			}
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("only %d clean differential cases ran; generator drift?", cases)
	}
}

func TestLiftDumpDeterministic(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := runningExampleParts(t)
	a, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runningexample.Tree() // a second parse: Lift runs again
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.Lift(again)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("a second core got the first core's lift")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Lift is not deterministic across runs")
	}
	if len(a.Root.Children) == 0 || len(a.Order) == 0 {
		t.Error("Lift is empty")
	}
}

// TestLiftMemoisedPerCore pins the set's lift memo: lifting the same
// core again returns the same tree without allocating, and a different
// core gets a lift of its own.
func TestLiftMemoisedPerCore(t *testing.T) {
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := runningExampleParts(t)
	first, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := set.Lift(core); err != nil || again != first {
		t.Fatalf("a second Lift of the same core = %p, %v; want the memoised %p", again, err, first)
	}
	if allocs := testing.AllocsPerRun(100, func() { set.Lift(core) }); allocs != 0 {
		t.Errorf("a memoised Lift allocates %.0f times, want 0", allocs)
	}

	other := core.Clone()
	other.Root.Child("memory@40000000").Name = "memory@0"
	lifted, err := set.Lift(other)
	if err != nil {
		t.Fatal(err)
	}
	if lifted == first || lifted.Root.Child("memory@0") == nil || lifted.Root.Child("memory@40000000") != nil {
		t.Fatal("a different core got the memoised lift")
	}
	if back, err := set.Lift(core); err != nil || back == lifted || back.Root.Child("memory@40000000") == nil {
		t.Fatal("lifting the first core again returned the other core's lift")
	}
}

// TestLiftProjectMatchesApplyReAdd pins Project against Apply, with
// conflicts against Apply errors, on every configuration of a node that
// a removal takes and a later adds or modifies of its parent creates
// afresh, a modifies then edits, and an unconditional /delete-node/ in
// a fragment. The re-created node holds only the fragments' content and
// takes its position from the fragment, not from the removed node, and
// an unconditional delete marker detaches its node.
func TestLiftProjectMatchesApplyReAdd(t *testing.T) {
	core, err := dts.Parse("core.dts", `/dts-v1/;
/ {
	x: x {
		p = <1>;
		z {
			r = <1>;
		};
	};
	w {
	};
};
`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.Parse("readd.deltas", `
delta rm when fr {
    removes node /x;
}

delta add after rm when fa {
    adds binding / {
        y: x {
            q = <2>;
            z {
                s = <2>;
            };
        };
    }
}

delta mod after add when fm {
    modifies /x {
        t = <3>;
    }
}

delta again after rm when fg {
    modifies / {
        x {
            u = <4>;
        };
    }
}

delta del {
    modifies / {
        /delete-node/ w;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for mask := 0; mask < 16; mask++ {
		var features []string
		for i, f := range []string{"fr", "fa", "fm", "fg"} {
			if mask&(1<<i) != 0 {
				features = append(features, f)
			}
		}
		cfg := featmodel.ConfigOf(features...)
		want, _, err := set.Apply(core, cfg)
		conflicts := lifted.ActiveConflicts(cfg)
		if (err != nil) != (len(conflicts) > 0) {
			t.Errorf("%v: Apply error %v, lifted conflicts %v", features, err, conflicts)
		}
		if err != nil {
			continue
		}
		applied++
		got := lifted.Project(cfg)
		if g, w := got.Print(), want.Print(); g != w {
			t.Errorf("%v: Project\n%s\nApply\n%s", features, g, w)
		}
		if g, w := got.OriginDump(), want.OriginDump(); g != w {
			t.Errorf("%v: Project origins\n%s\nApply origins\n%s", features, g, w)
		}
	}
	if applied < 8 {
		t.Fatalf("only %d configurations derive", applied)
	}
}

// TestLiftOriginsStayLinear pins the size of a node's origin history: a
// node that a removal takes and a later modifies of its parent creates
// afresh has two source positions, and each of the 40 deltas that then
// edit it adds one event, not a copy of every option per position. It
// also pins Project's origins against Apply's on a few configurations.
func TestLiftOriginsStayLinear(t *testing.T) {
	const edits = 40
	core, err := dts.Parse("core.dts", "/dts-v1/;\n/ {\n\tx {\n\t\tp = <0>;\n\t};\n};\n")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	src.WriteString("delta rm when fr {\n    removes node /x;\n}\n")
	src.WriteString("delta again after rm when fg {\n    modifies / {\n        x {\n            u = <1>;\n        };\n    }\n}\n")
	for i := 0; i < edits; i++ {
		fmt.Fprintf(&src, "delta e%d after again when f%d {\n    modifies /x {\n        p%d = <1>;\n    }\n}\n", i, i, i)
	}
	set, err := delta.Parse("edits.deltas", src.String())
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	// The core's creation, the re-creation and its edit, one per e_i.
	if got, want := len(lifted.Root.Child("x").Origins), 3+edits; got != want {
		t.Fatalf("/x has %d origin events, want %d", got, want)
	}
	evens, odds := []string{"fr", "fg"}, []string{"fr", "fg"}
	for i := 0; i < edits; i++ {
		if i%2 == 0 {
			evens = append(evens, fmt.Sprintf("f%d", i))
		} else {
			odds = append(odds, fmt.Sprintf("f%d", i))
		}
	}
	for _, features := range [][]string{nil, {"fr", "fg"}, {"fg", "f3"}, evens, odds, {"fr", "fg", "f0", "f39"}} {
		cfg := featmodel.ConfigOf(features...)
		want, _, err := set.Apply(core, cfg)
		if err != nil {
			t.Fatalf("%v: %v", features, err)
		}
		if g, w := lifted.Project(cfg).OriginDump(), want.OriginDump(); g != w {
			t.Errorf("%v: Project origins\n%s\nApply origins\n%s", features, g, w)
		}
	}
}
