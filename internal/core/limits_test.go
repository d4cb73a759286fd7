package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// wideDevicePipeline builds a pipeline whose interrupt family compares
// many claim pairs: n device nodes, each claiming its own interrupt
// line, give n*(n-1)/2 pairs per tree, each decided by equality and
// each polling the context once, so a cancellation can land at a fixed
// poll well inside the family. (Their regions are disjoint, so the
// semantic family's sweep leaves it no work.)
func wideDevicePipeline(t *testing.T, n int) *Pipeline {
	t.Helper()
	var b strings.Builder
	b.WriteString("/dts-v1/;\n/ {\n#address-cells = <1>;\n#size-cells = <1>;\n")
	b.WriteString("memory@0 { device_type = \"memory\"; reg = <0x0 0x1000>; };\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "dev%d: uart@%x { compatible = \"ns16550a\"; reg = <0x%x 0x100>; interrupts = <%d>; };\n",
			i, 0x1000+i*0x1000, 0x1000+i*0x1000, 32+i)
	}
	b.WriteString("};\n")
	tree, err := dts.Parse("wide.dts", b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	root := featmodel.NewFeature("root")
	model, err := featmodel.NewModel(root)
	if err != nil {
		t.Fatal(err)
	}
	set, err := delta.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{
		FrontEnd:  &FrontEnd{Core: tree, Deltas: set, Model: model},
		Schemas:   schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{featmodel.ConfigOf("root")},
	}
}

// tripCtx is a context that cancels itself on its k-th Err poll (k = 0
// never trips) and counts every poll, so a test can cancel at a fixed
// point inside a run instead of racing the wall clock.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	k      int64
	polls  atomic.Int64
}

func newTripCtx(k int64) *tripCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &tripCtx{Context: ctx, cancel: cancel, k: k}
}

func (c *tripCtx) Err() error {
	if c.polls.Add(1) == c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRunContextCancelMidRun cancels a serial run from inside its first
// tree's interrupt family — a quarter of the way through an uncanceled
// run's polls — and requires a *LimitError wrapping context.Canceled
// and no *sat.LimitError, with the run stopping at the next poll.
func TestRunContextCancelMidRun(t *testing.T) {
	const n = 120
	p := wideDevicePipeline(t, n)
	count := newTripCtx(0)
	// The line has no CPUs, so artifact generation fails after every
	// check has run; only a stop inside the checks matters here.
	var le *LimitError
	if _, err := p.RunContext(count, Limits{Parallelism: 1}); errors.As(err, &le) {
		t.Fatalf("uncanceled run stopped: %v", err)
	}
	total := count.polls.Load()
	if total < 2*n*(n-1)/2 {
		t.Fatalf("uncanceled run polled the context %d times, want at least one poll per interrupt pair of both trees", total)
	}

	ctx := newTripCtx(total / 4)
	_, err := p.RunContext(ctx, Limits{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	var lim *sat.LimitError
	if errors.As(err, &lim) {
		t.Fatalf("err = %v wraps a *sat.LimitError; a cancellation is no budget", err)
	}
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want *LimitError", err)
	}
	if le.Phase != "vm:vm1" {
		t.Errorf("phase = %q, want vm:vm1", le.Phase)
	}
	if extra := ctx.polls.Load() - ctx.k; extra > 1 {
		t.Errorf("run polled the context %d more times after cancellation, want it to stop at the next poll", extra)
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	p := paperPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.RunContext(ctx, Limits{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextDeltaOpsCap(t *testing.T) {
	p := paperPipeline(t)
	_, err := p.RunContext(context.Background(), Limits{MaxDeltaOps: 1})
	var sl *delta.StepLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("err = %v, want *delta.StepLimitError", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want wrapped in *LimitError", err)
	}
}

func TestRunContextSolverBudget(t *testing.T) {
	// A one-conflict cap stops the fresh model's product enumeration at
	// its first conflict. Lifted reachability is the only family that
	// runs a solver.
	p := paperPipeline(t)
	p.Mode = ModeLifted
	_, err := p.RunContext(context.Background(), Limits{
		Solver: sat.Budget{MaxConflicts: 1},
	})
	var lim *sat.LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *sat.LimitError", err)
	}
	if lim.Reason != sat.StopConflicts {
		t.Errorf("reason = %q, want %q", lim.Reason, sat.StopConflicts)
	}
}

func TestRunContextUnlimitedMatchesRun(t *testing.T) {
	p := paperPipeline(t)
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.RunContext(context.Background(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.OK() != want.OK() || len(got.VMs) != len(want.VMs) {
		t.Errorf("RunContext result diverges from Run")
	}
}
