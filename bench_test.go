// Package llhsc_test benchmarks every experiment of DESIGN.md §4 — one
// Benchmark per table/figure (E1–E7 are the paper's artifacts, E8–E12
// the scaling extensions) — plus the ablation benchmarks of DESIGN.md
// §5 (hash-consing, at-most-one encodings, incremental vs fresh
// solving). Run with:
//
//	go test -bench=. -benchmem
package llhsc_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/bench"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dtb"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/logic"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
	"llhsc/internal/smt"
)

// ---- E1: parse the running example ----

func BenchmarkE1ParseRunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runningexample.Tree(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: feature-model inference and product counting ----

func BenchmarkE2FeatureModel(b *testing.B) {
	tree, err := runningexample.Tree()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inferred, err := featmodel.InferFromDTS(tree, featmodel.InferOptions{RootName: "CustomSBC"})
		if err != nil {
			b.Fatal(err)
		}
		model, err := inferred.AddVirtualGroup("vEthernet", featmodel.GroupXor,
			[]string{"veth0", "veth1"},
			featmodel.MustParseExpr("veth0 -> cpu@0"),
			featmodel.MustParseExpr("veth1 -> cpu@1"))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := featmodel.NewAnalyzer(model).CountProducts(0)
		if n != runningexample.ProductCount {
			b.Fatalf("products = %d, want %d", n, runningexample.ProductCount)
		}
	}
}

// ---- E3: product validation and partitioning ----

func BenchmarkE3Products(b *testing.B) {
	model, err := runningexample.Model()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if model.Conflict(runningexample.VM1Config()) != nil || model.Conflict(runningexample.VM2Config()) != nil {
			b.Fatal("paper products invalid")
		}
		mm, _ := featmodel.NewMultiModel(model, 2)
		ma, err := featmodel.NewMultiAnalyzer(mm)
		if err != nil {
			b.Fatal(err)
		}
		if ma.IsVoid() {
			b.Fatal("2-VM partitioning void")
		}
	}
}

// ---- E4: delta ordering and application ----

func BenchmarkE4Deltas(b *testing.B) {
	core, err := runningexample.Tree()
	if err != nil {
		b.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		b.Fatal(err)
	}
	cfg := runningexample.VM1Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := set.Apply(core, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: the Section I-A address clash ----

func BenchmarkE5AddrClash(b *testing.B) {
	src := `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
	uart@60000000 { compatible = "ns16550a"; reg = <0x0 0x60000000 0x0 0x1000>; };
};
`
	tree, err := dts.Parse("clash.dts", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collisions, _ := constraints.NewSemanticChecker().Check(tree)
		if len(collisions) != 1 {
			b.Fatalf("collisions = %d", len(collisions))
		}
	}
}

// ---- E6: the truncation scenario ----

func BenchmarkE6Truncation(b *testing.B) {
	core, err := runningexample.Tree()
	if err != nil {
		b.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		b.Fatal(err)
	}
	var kept []*delta.Delta
	for _, d := range set.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	smaller, err := delta.NewSet(kept)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		product, _, err := smaller.Apply(core, runningexample.VM1Config())
		if err != nil {
			b.Fatal(err)
		}
		collisions, _ := constraints.NewSemanticChecker().Check(product)
		if len(collisions) == 0 {
			b.Fatal("collision at 0x0 not found")
		}
	}
}

// ---- E7: the full pipeline with artifact generation ----

func BenchmarkE7BaoGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := bench.RunningExamplePipeline()
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() || report.Artifacts.ConfigC() == "" {
			b.Fatal("pipeline failed")
		}
	}
}

// ---- E8: overlap-check scaling ----

func BenchmarkE8OverlapScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		regions := bench.SyntheticRegions(n, true)
		b.Run(fmt.Sprintf("perpair/n=%d", n), func(b *testing.B) {
			sc := constraints.NewSemanticChecker()
			for i := 0; i < b.N; i++ {
				if got := sc.FindCollisions(regions, 32); len(got) == 0 {
					b.Fatal("planted collision missed")
				}
			}
		})
		b.Run(fmt.Sprintf("onequery/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := bench.AnyCollision(regions, 32); !ok {
					b.Fatal("planted collision missed")
				}
			}
		})
	}
}

// ---- E9: feature-model analysis scaling ----

func BenchmarkE9FMScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		model := bench.SyntheticFeatureModel(n, 42)
		b.Run(fmt.Sprintf("void/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				featmodel.NewAnalyzer(model).IsVoid()
			}
		})
		b.Run(fmt.Sprintf("dead/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				featmodel.NewAnalyzer(model).DeadFeatures()
			}
		})
	}
}

// ---- E10: the detection matrix ----

func BenchmarkE10DetectionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		matrix, err := bench.DetectionMatrix()
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range matrix {
			if !d.LLHSC {
				b.Fatalf("llhsc missed %v", d.Fault)
			}
		}
	}
}

// ---- E11: delta-chain scaling ----

func BenchmarkE11DeltaScaling(b *testing.B) {
	for _, k := range []int{16, 64} {
		core, set, err := bench.SyntheticDeltaChain(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("apply/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := set.Apply(core, featmodel.ConfigOf()); err != nil {
					b.Fatal(err)
				}
			}
		})
		product, _, err := set.Apply(core, featmodel.ConfigOf())
		if err != nil {
			b.Fatal(err)
		}
		regions, err := addr.CollectRegions(product)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("check/k=%d", k), func(b *testing.B) {
			sc := constraints.NewSemanticChecker()
			for i := 0; i < b.N; i++ {
				sc.FindCollisions(regions, 32)
			}
		})
	}
}

// ---- ablations (DESIGN.md §5) ----

// BenchmarkAblationHashConsing compares bit-blasting with and without
// structural sharing of terms.
func BenchmarkAblationHashConsing(b *testing.B) {
	build := func(ctx *smt.Context, solver *smt.Solver) {
		x := ctx.BVVar("x", 32)
		sum := ctx.BVConst(32, 0)
		for i := 0; i < 16; i++ {
			// the same subterm appears repeatedly: consing shares it
			sum = ctx.Add(sum, ctx.Add(x, ctx.BVConst(32, uint64(i))))
		}
		solver.Assert(ctx.Eq(sum, ctx.BVConst(32, 0x1234)))
		solver.Check()
	}
	b.Run("consing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := smt.NewContext()
			build(ctx, smt.NewSolver(ctx))
		}
	})
	b.Run("noconsing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := smt.NewContext(smt.WithoutHashConsing())
			build(ctx, smt.NewSolver(ctx))
		}
	})
}

// BenchmarkAblationAMOEncodings compares the pairwise and sequential
// at-most-one encodings on large XOR groups.
func BenchmarkAblationAMOEncodings(b *testing.B) {
	const n = 200
	lits := make([]logic.Lit, n)
	for i := range lits {
		lits[i] = logic.Lit(i + 1)
	}
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			s.AddClauses(n, logic.AppendAtMostOnePairwise(nil, lits))
			s.AddClause(lits[0])
			if s.Solve() != sat.Sat {
				b.Fatal("unexpected unsat")
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := logic.NewPool()
			pool.Reserve(logic.Var(n))
			arena := logic.AppendAtMostOneSequential(nil, lits, pool)
			s := sat.New()
			s.AddClauses(pool.NumVars(), arena)
			s.AddClause(lits[0])
			if s.Solve() != sat.Sat {
				b.Fatal("unexpected unsat")
			}
		}
	})
}

// ---- substrate micro-benchmarks ----

func BenchmarkSATPigeonhole(b *testing.B) {
	const n = 6
	for i := 0; i < b.N; i++ {
		s := sat.New()
		v := func(p, h int) logic.Lit { return logic.Lit(p*n + h + 1) }
		for p := 0; p <= n; p++ {
			cl := make([]logic.Lit, n)
			for h := 0; h < n; h++ {
				cl[h] = v(p, h)
			}
			s.AddClause(cl...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(-v(p1, h), -v(p2, h))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP should be unsat")
		}
	}
}

func BenchmarkSMTBitVectorAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		solver := smt.NewSolver(ctx)
		x := ctx.BVVar("x", 32)
		solver.Assert(ctx.Eq(ctx.Add(x, ctx.BVConst(32, 12345)), ctx.BVConst(32, 99999)))
		if solver.Check() != sat.Sat {
			b.Fatal("unsat")
		}
		if solver.BVValue(x) != 99999-12345 {
			b.Fatal("wrong model")
		}
	}
}

func BenchmarkDTSParse(b *testing.B) {
	tree := bench.SyntheticDTS(16, 64)
	src := tree.Print()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dts.Parse("synthetic.dts", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTBEncodeDecode(b *testing.B) {
	tree := bench.SyntheticDTS(16, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := dtb.Encode(tree)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dtb.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemaValidate(b *testing.B) {
	tree := bench.SyntheticDTS(16, 64)
	set := schema.StandardSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := set.Validate(tree); len(vs) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

func BenchmarkSyntacticChecker(b *testing.B) {
	tree := bench.SyntheticDTS(4, 16)
	checker := constraints.NewSyntacticChecker(schema.StandardSet())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := checker.Check(tree); len(vs) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// Verify the experiment harness stays runnable from the bench binary.
func BenchmarkExperimentE5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunE5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12: full-pipeline scaling ----

func BenchmarkE12PipelineScaling(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("vms=%d", k), func(b *testing.B) {
			pipeline, err := bench.SyntheticProductLine(k, k, k)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := pipeline.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal("unexpected violations")
				}
			}
		})
	}
}

// ---- E13: parallel-pipeline speedup ----

// BenchmarkE13ParallelSpeedup runs the heavy 8-VM product line at each
// worker count. Speedup over workers=1 needs real cores: on a 1-CPU
// machine the sub-benchmarks coincide (modulo pool overhead), which is
// itself a useful regression signal.
func BenchmarkE13ParallelSpeedup(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pipeline, err := bench.HeavyProductLine(8)
			if err != nil {
				b.Fatal(err)
			}
			limits := core.Limits{Parallelism: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := pipeline.RunContext(context.Background(), limits)
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal("unexpected violations")
				}
			}
		})
	}
}

// ---- Lifted checking of the running example ----

// BenchmarkLiftedRunningExample runs one lifted check of the whole
// running-example product line with the standard schemas: every family
// discharged over the line's 12 valid products, held as product sets
// since the model's first check. It reports the products and any
// session work per check — reachability queries, the pruned (Unsat)
// ones, conflicts, and the clauses the session ends with — which is
// zero unless the feature tree allows more than 64 configurations.
func BenchmarkLiftedRunningExample(b *testing.B) {
	core, err := runningexample.Tree()
	if err != nil {
		b.Fatal(err)
	}
	set, err := runningexample.Deltas()
	if err != nil {
		b.Fatal(err)
	}
	model, err := runningexample.Model()
	if err != nil {
		b.Fatal(err)
	}
	lifted, err := set.Lift(core)
	if err != nil {
		b.Fatal(err)
	}
	lc := constraints.NewLiftedChecker(model, schema.StandardSet())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, err := lc.CheckContext(ctx, lifted)
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("running example has lifted findings: %v", findings)
		}
	}
	st := lc.LastStats()
	b.ReportMetric(float64(st.Products), "products")
	b.ReportMetric(float64(st.Queries), "queries/op")
	b.ReportMetric(float64(st.Pruned), "pruned/op")
	b.ReportMetric(float64(st.Solver.Conflicts), "conflicts/op")
	b.ReportMetric(float64(st.Solver.Clauses), "clauses")
}
