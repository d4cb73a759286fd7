package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
)

// TestFrontEndLiftedOnce pins the front end's lift memo: a second
// Lifted returns the same tree without allocating, and that tree is
// the one a plain Lift of the same parts builds.
func TestFrontEndLiftedOnce(t *testing.T) {
	fe := paperPipeline(t).FrontEnd
	first, err := fe.Lifted()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := fe.Lifted(); err != nil || again != first {
		t.Fatalf("a second Lifted = %p, %v; want the first %p", again, err, first)
	}
	if allocs := testing.AllocsPerRun(100, func() { fe.Lifted() }); allocs != 0 {
		t.Errorf("a second Lifted allocates %.0f times, want 0", allocs)
	}
	fresh, err := fe.Deltas.Lift(fe.Core)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first || !reflect.DeepEqual(fresh, first) {
		t.Error("Lifted is not a shared copy of the front end's Lift")
	}
}

// TestFrontEndLiftedConcurrent calls Lifted on one front end from
// several goroutines at once: all of them get one tree. Run it under
// -race: a second lift, or a read of the tree before it is built, is a
// race with the first.
func TestFrontEndLiftedConcurrent(t *testing.T) {
	fe := paperPipeline(t).FrontEnd
	got := make([]*delta.LiftedTree, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			lt, err := fe.Lifted()
			if err != nil {
				t.Error(err)
			}
			got[i] = lt
		}(i)
	}
	close(start)
	wg.Wait()
	for i, lt := range got {
		if lt == nil || lt != got[0] {
			t.Fatalf("goroutine %d got tree %p, goroutine 0 got %p", i, lt, got[0])
		}
	}
}

// TestFrontEndLiftedError checks that a product line that cannot be
// lifted, here two deltas each ordered after the other, answers every
// Lifted call with the one lift's error, and a lifted pipeline run
// with it as a structural error.
func TestFrontEndLiftedError(t *testing.T) {
	p := paperPipeline(t)
	tree, err := dts.Parse("core.dts", "/dts-v1/;\n/ { x { }; };\n")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := ParseFrontEnd("", tree, "cycle.deltas", `
delta a after b { modifies /x { p = <1>; } }
delta b after a { modifies /x { p = <2>; } }
`, "featuremodel", p.Model.Format())
	if err != nil {
		t.Fatal(err)
	}
	lt, first := fe.Lifted()
	if first == nil || lt != nil {
		t.Fatalf("Lifted over a cyclic after-relation = %p, %v; want an error", lt, first)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lt, err := fe.Lifted(); lt != nil || err != first {
				t.Errorf("a later Lifted = %p, %v; want the first error %v", lt, err, first)
			}
		}()
	}
	wg.Wait()
	p.FrontEnd, p.Mode = fe, ModeLifted
	if _, err := p.Run(); err == nil || !strings.Contains(err.Error(), "core: lift: ") {
		t.Errorf("a lifted run = %v; want the lift error", err)
	}
}
