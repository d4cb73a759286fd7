// Round-trip tests for the slow-query reproducer bundles: a pipeline
// run with the threshold at zero must bundle every solver query, and
// replaying each bundle must reproduce the recorded verdict and
// witness exactly.
package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
)

// bundleDir runs the pipeline with every query treated as slow and
// returns the bundle paths it produced.
func bundleDir(t *testing.T, p *Pipeline) []string {
	t.Helper()
	dir := t.TempDir()
	p.SlowQuery = obs.NewSlowQueryLog(nil, 0) // everything is "slow"
	p.SlowQueryBundleDir = dir
	if _, err := p.RunContext(context.Background(), Limits{}); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "slowquery-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// replayAll loads and replays every bundle, failing on any mismatch,
// and returns the per-kind counts plus how many verdicts were found.
func replayAll(t *testing.T, paths []string) (kinds map[string]int, verdicts map[string]int) {
	t.Helper()
	kinds = make(map[string]int)
	verdicts = make(map[string]int)
	for _, path := range paths {
		b, err := ReadReproBundle(path)
		if err != nil {
			t.Fatalf("ReadReproBundle(%s): %v", path, err)
		}
		if b.Key == "" || b.Version != 1 {
			t.Errorf("%s: key/version not stamped: %+v", filepath.Base(path), b)
		}
		kinds[b.Kind]++
		verdicts[b.Query.Verdict]++
		res, err := b.Replay(context.Background())
		if err != nil {
			t.Fatalf("Replay(%s): %v", path, err)
		}
		if !res.Match {
			t.Errorf("%s: replay diverged: got verdict=%q witness=%q, recorded verdict=%q witness=%q",
				filepath.Base(path), res.Verdict, res.Witness, b.Query.Verdict, b.Query.Witness)
		}
	}
	return kinds, verdicts
}

// collidingPipeline is the running example minus delta d4: the VM1
// product has a genuine address overlap, so the semantic checker's
// decision ladder is guaranteed to run real pair queries (the clean
// example's pairs are all discharged by the sweep prefilter, which by
// design records no queries).
func collidingPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := paperPipeline(t)
	var kept []*delta.Delta
	for _, d := range p.Deltas.Deltas {
		if d.Name != "d4" {
			kept = append(kept, d)
		}
	}
	set, err := delta.NewSet(kept)
	if err != nil {
		t.Fatal(err)
	}
	p.Deltas = set
	return p
}

// TestSemanticBundlesReplayToSameVerdict: an enumerative run over a
// product line with a real overlap must bundle its pair decisions, and
// each bundle replays to the recorded verdict — including the overlap
// with its witness address.
func TestSemanticBundlesReplayToSameVerdict(t *testing.T) {
	paths := bundleDir(t, collidingPipeline(t))
	if len(paths) == 0 {
		t.Fatal("threshold-zero run produced no bundles")
	}
	kinds, verdicts := replayAll(t, paths)
	if kinds[BundleSemanticPair] == 0 {
		t.Errorf("no semantic-pair bundles: %v", kinds)
	}
	if verdicts["overlap"] == 0 {
		t.Errorf("no overlap query bundled although the line collides: %v", verdicts)
	}
}

// TestLiftedBundlesReplayToSameVerdict: a lifted-mode run bundles its
// family reachability queries and each replays to the same verdict.
// Replay poses the guard as the same assumption set production does,
// so the run's conjunctive guards must be among the bundles, and
// hand-written bundles with a top-level conjunction and a negated
// conjunction must replay to the brute-force verdict in both
// directions.
func TestLiftedBundlesReplayToSameVerdict(t *testing.T) {
	p := paperPipeline(t)
	p.Mode = ModeLifted
	paths := bundleDir(t, p)
	if len(paths) == 0 {
		t.Fatal("lifted threshold-zero run produced no bundles")
	}
	kinds, _ := replayAll(t, paths)
	if kinds[BundleLiftedReach] == 0 {
		t.Errorf("no lifted-reach bundles: %v", kinds)
	}
	conjunctive := 0
	for _, path := range paths {
		b, err := ReadReproBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.Kind != BundleLiftedReach || b.Guard == "-" {
			continue
		}
		if g, err := featmodel.ParseExpr(b.Guard); err == nil && g.Kind == featmodel.ExprAnd {
			conjunctive++
		}
	}
	if conjunctive == 0 {
		t.Error("no bundled guard has a top-level conjunction")
	}

	products, complete := featmodel.NewAnalyzer(p.Model).EnumerateProducts(0)
	if !complete {
		t.Fatal("product enumeration incomplete")
	}
	dir := t.TempDir()
	var written []string
	for _, guard := range []string{
		"veth0 && cpu@0",         // top-level conjunction, sat
		"veth0 && cpu@1",         // top-level conjunction, unsat (veth0 -> cpu@0)
		"!(cpu@0 && cpu@1)",      // negated conjunction, sat
		"!(memory && CustomSBC)", // negated conjunction, unsat
	} {
		g := featmodel.MustParseExpr(guard)
		verdict := "unsat"
		for _, prod := range products {
			if g.Eval(featmodel.ConfigOf(prod...)) {
				verdict = "sat"
				break
			}
		}
		path, err := WriteReproBundle(dir, &ReproBundle{
			Version:      1,
			Kind:         BundleLiftedReach,
			FeatureModel: p.Model.Format(),
			Guard:        guard,
			Query:        obs.QueryRecord{Family: "lifted", Tier: "lifted", Query: guard, Verdict: verdict},
		})
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, path)
	}
	if _, verdicts := replayAll(t, written); verdicts["sat"] != 2 || verdicts["unsat"] != 2 {
		t.Errorf("hand-written guards should replay two of each verdict, got %v", verdicts)
	}
}

// TestBundlesAreContentAddressed: running the same pipeline twice into
// one directory must not duplicate bundles — identical queries share a
// content address and the second write finds the first file.
func TestBundlesAreContentAddressed(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		p := collidingPipeline(t)
		p.SlowQuery = obs.NewSlowQueryLog(nil, 0)
		p.SlowQueryBundleDir = dir
		if _, err := p.RunContext(context.Background(), Limits{}); err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "slowquery-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && len(paths) == 0 {
			t.Fatal("first run produced no bundles")
		}
		if i == 1 {
			first, _ := filepath.Glob(filepath.Join(dir, "slowquery-*.json"))
			if len(first) != len(paths) {
				t.Errorf("second run changed bundle count: %d then %d", len(paths), len(first))
			}
		}
	}
}

// TestPairwiseStrategyBundlesStillReplay: bundles written while the
// semantic checker still had selectable strategies carry a "strategy"
// field (here "pairwise", decided on the SAT tier). They must still
// load and replay to their recorded verdict and witness: every
// strategy reported the same answer the single production path gives.
func TestPairwiseStrategyBundlesStillReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "pairwise-bundles", "slowquery-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no pairwise-strategy bundles in testdata")
	}
	_, verdicts := replayAll(t, paths)
	if verdicts["overlap"] == 0 || verdicts["disjoint"] == 0 {
		t.Errorf("fixtures should cover both verdicts, got %v", verdicts)
	}
}

// TestReadReproBundleRejectsUnknownKind guards the replay entry point
// against malformed or future-versioned bundle files.
func TestReadReproBundleRejectsUnknownKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slowquery-bad.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"kind":"quantum-pair"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReproBundle(path); err == nil {
		t.Error("ReadReproBundle accepted an unknown kind")
	}
}

// TestNoBundlesWithoutDir: a slow-query log with no bundle directory
// observes queries but must not write anything anywhere.
func TestNoBundlesWithoutDir(t *testing.T) {
	p := collidingPipeline(t)
	log := obs.NewSlowQueryLog(nil, 0)
	p.SlowQuery = log
	if _, err := p.RunContext(context.Background(), Limits{}); err != nil {
		t.Fatal(err)
	}
	if log.Observed() == 0 {
		t.Error("no queries observed with instrumentation enabled")
	}
}
