package constraints_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"llhsc/internal/bench"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// These suites compare the production semantic, memreserve and
// interrupt checkers against their SMT oracles (OracleCheck,
// oracle_test.go; OracleMemReserve and OracleInterrupts,
// family_oracle_test.go) on whole trees: the paper's running example
// through the full pipeline, the E6 truncation product and the E10
// fault corpus. They live in the external test package because core and
// bench import constraints.

// assertMatchesOracle checks the production checkers against the
// oracles byte for byte on one tree: collisions (verdicts, witnesses,
// ordering) and violations of all three families. It returns the
// oracle's collisions.
func assertMatchesOracle(t *testing.T, name string, tree *dts.Tree) []constraints.Collision {
	t.Helper()
	gotC, gotV, err := constraints.NewSemanticChecker().CheckContext(context.Background(), tree)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantC, wantV := constraints.OracleCheck(t, tree)
	if !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("%s: collisions differ from the oracle:\n got %v\nwant %v", name, gotC, wantC)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Errorf("%s: violations differ from the oracle:\n got %v\nwant %v", name, gotV, wantV)
	}
	if got, want := (constraints.MemReserveChecker{}).Check(tree), constraints.OracleMemReserve(t, tree); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: memreserve differs from the oracle:\n got %v\nwant %v", name, got, want)
	}
	if got, want := (constraints.InterruptChecker{}).Check(tree), constraints.OracleInterrupts(t, tree); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: interrupts differ from the oracle:\n got %v\nwant %v", name, got, want)
	}
	return wantC
}

// oracleTreeViolations rebuilds one product's report violations in the
// pipeline's family order, with the semantic, memreserve and interrupt
// families decided by their oracles.
func oracleTreeViolations(t *testing.T, tree *dts.Tree) []constraints.Violation {
	t.Helper()
	out := constraints.NewSyntacticChecker(schema.StandardSet()).Check(tree)
	_, sem := constraints.OracleCheck(t, tree)
	out = append(out, sem...)
	out = append(out, constraints.OracleMemReserve(t, tree)...)
	return append(out, constraints.OracleInterrupts(t, tree)...)
}

// TestSemanticStrategiesAgreeOnRunningExample: the full pipeline report
// on the paper's running example must equal the same report with every
// product's semantic verdicts taken from the oracle.
func TestSemanticStrategiesAgreeOnRunningExample(t *testing.T) {
	report, err := bench.RunningExamplePipeline()
	if err != nil {
		t.Fatal(err)
	}
	want := *report
	want.VMs = append([]core.VMResult(nil), report.VMs...)
	for i := range want.VMs {
		assertMatchesOracle(t, want.VMs[i].Name, want.VMs[i].Tree)
		want.VMs[i].Violations = oracleTreeViolations(t, want.VMs[i].Tree)
	}
	assertMatchesOracle(t, "platform", want.Platform.Tree)
	want.Platform.Violations = oracleTreeViolations(t, want.Platform.Tree)
	if !reflect.DeepEqual(report, &want) {
		t.Errorf("running-example report differs from its oracle reconstruction")
	}
}

// TestSemanticStrategiesAgreeOnTruncationScenario replays E6 (product
// derived without delta d4): production and oracle must agree, and the
// oracle must still find the paper's collision at 0x0.
func TestSemanticStrategiesAgreeOnTruncationScenario(t *testing.T) {
	coreTree, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
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
	product, _, err := smaller.Apply(coreTree, runningexample.VM1Config())
	if err != nil {
		t.Fatal(err)
	}
	zero := false
	for _, c := range assertMatchesOracle(t, "e6-truncation", product) {
		if c.Witness == 0 {
			zero = true
		}
	}
	if !zero {
		t.Fatal("oracle lost the paper's 0x0 witness")
	}
}

// TestSemanticStrategiesAgreeOnFaultCorpus sweeps the E10 fault corpus.
func TestSemanticStrategiesAgreeOnFaultCorpus(t *testing.T) {
	for _, f := range bench.AllFaults() {
		if f == bench.FaultPathologicalCNF {
			continue // no DTS form (FaultSource panics on it)
		}
		src, inc := bench.FaultSource(f)
		tree, err := dts.Parse(fmt.Sprintf("%v.dts", f), src, dts.WithIncluder(inc))
		if err != nil {
			continue // syntax-level faults never reach the semantic checker
		}
		assertMatchesOracle(t, f.String(), tree)
	}
}
