package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// wideDevicePipeline builds a pipeline whose interrupt family issues
// many SMT queries: n device nodes, each claiming its own interrupt
// line, give n*(n-1)/2 Push/Pop solves, so an uncancelled run takes far
// longer than the cancellation latency the tests assert. (Their regions
// are disjoint, so the semantic family's sweep leaves it no work.)
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
		Core:      tree,
		Deltas:    set,
		Model:     model,
		Schemas:   schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{featmodel.ConfigOf("root")},
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	p := wideDevicePipeline(t, 120) // ~7k interrupt solves per tree, ~200ms uncancelled

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.RunContext(ctx, Limits{})
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want *LimitError", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
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
	// An already-expired solver deadline stops the first SAT query.
	p := paperPipeline(t)
	_, err := p.RunContext(context.Background(), Limits{
		Solver: sat.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	var lim *sat.LimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *sat.LimitError", err)
	}
	if lim.Reason != sat.StopDeadline {
		t.Errorf("reason = %q, want %q", lim.Reason, sat.StopDeadline)
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
