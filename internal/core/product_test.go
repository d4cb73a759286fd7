package core

import (
	"context"
	"testing"

	"llhsc/internal/checkcache"
	"llhsc/internal/delta"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// runningExample is the running example's pipeline with a check cache,
// optionally without one of its deltas.
func runningExample(t *testing.T, drop string) *Pipeline {
	t.Helper()
	tree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	var kept []*delta.Delta
	for _, d := range deltas.Deltas {
		if d.Name != drop {
			kept = append(kept, d)
		}
	}
	if deltas, err = delta.NewSet(kept); err != nil {
		t.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{
		FrontEnd:  &FrontEnd{Identity: "running example without " + drop, Core: tree, Deltas: deltas, Model: model},
		Schemas:   schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{runningexample.VM1Config(), runningexample.VM2Config()},
		Cache:     checkcache.New(16),
	}
}

// TestWarmProductHitAllocs gates a product served from the check cache
// at its violation copy: a passing product allocates nothing, and a
// failing one only the copy of its violations. The key is digested in
// place, and the record is shared, not rebuilt.
func TestWarmProductHitAllocs(t *testing.T) {
	for _, c := range []struct {
		drop   string
		allocs float64
	}{
		{"", 0},   // the running example passes
		{"d4", 1}, // without d4 its memory overlaps the veth windows
	} {
		p := runningExample(t, c.drop)
		if _, err := p.RunContext(context.Background(), Limits{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		st := p.newRunState(Limits{Parallelism: 1})
		ctx := context.Background()
		var out VMResult
		if err := p.deriveAndCheckVM(ctx, st, 0, &out, nil); err != nil {
			t.Fatal(err)
		}
		if out.Tree != nil {
			t.Fatalf("without %q: a warm product was derived again", c.drop)
		}
		if failing := len(out.Violations) > 0; failing != (c.allocs > 0) {
			t.Fatalf("without %q: vm1 has %d violations", c.drop, len(out.Violations))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := p.deriveAndCheckVM(ctx, st, 0, &out, nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != c.allocs {
			t.Errorf("without %q: a warm product hit allocates %.0f times, want %.0f", c.drop, allocs, c.allocs)
		}
	}
}

// TestValidateRejectsCacheWithoutIdentity: a cache keyed by what
// derives a product cannot tell two front ends apart without their
// Identity.
func TestValidateRejectsCacheWithoutIdentity(t *testing.T) {
	p := runningExample(t, "")
	p.Identity = ""
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a Cache without an Identity")
	}
	if _, err := p.Run(); err == nil {
		t.Fatal("Run accepted a Cache without an Identity")
	}
	p.Cache = nil
	if err := p.Validate(); err != nil {
		t.Fatalf("without a Cache no Identity is needed: %v", err)
	}
}
