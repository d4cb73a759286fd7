package delta_test

// The lifted merged tree is only trustworthy if projecting it onto a
// configuration reproduces exactly what enumerative application
// produces. These differential tests pin Project(Lift(core), cfg)
// against Set.Apply(core, cfg) over the paper's running example (all 12
// products), the E6 corpus (d4 omitted), and randomized conform
// corpora, and check that ActiveConflicts mirrors Apply errors.

import (
	"reflect"
	"testing"

	"llhsc/internal/conform"
	"llhsc/internal/delta"
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
	b, err := set.Lift(core)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Lift is not deterministic across runs")
	}
	if len(a.Root.Children) == 0 || len(a.Order) == 0 {
		t.Error("Lift is empty")
	}
}
