// Solver slow-query support for the pipeline: the OnQuery observers
// wired into the semantic and lifted checkers, and the self-contained
// reproducer bundles written for queries that cross the slow-query
// threshold. A bundle carries everything needed to re-execute one
// query offline — canonical DTS (or feature model + guard) and budget
// knobs — keyed by the same sha256 canonicalization the
// check cache uses, and `llhsc replay <bundle>` re-runs it and
// compares verdict and witness (see Replay).
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"llhsc/internal/addr"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/sat"
)

// Bundle kinds.
const (
	BundleSemanticPair = "semantic-pair"
	BundleLiftedReach  = "lifted-reach"
)

// ReproBundle is a self-contained reproducer for one slow solver
// query. BundleSemanticPair carries the canonical product DTS and
// identifies a region pair; BundleLiftedReach carries the feature
// model and a guard expression. Both carry the budget knobs that
// shaped the original decision, so a replay runs the exact same
// decision procedure. Bundles written before the semantic checker had
// a single path also carry a "strategy" field; it is ignored on read,
// since every strategy reported the same verdict and witness.
type ReproBundle struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Key is the bundle's content address: checkcache.Key over the
	// payload fields below, the same length-delimited sha256 the check
	// cache uses, so identical slow queries dedup to one bundle file.
	Key string `json:"key"`

	DTS          string `json:"dts,omitempty"`          // semantic-pair: canonical tree text
	FeatureModel string `json:"featureModel,omitempty"` // lifted-reach: model text
	Guard        string `json:"guard,omitempty"`        // lifted-reach: guard expr ("-" = model non-void)
	SchemaFP     string `json:"schemaFP,omitempty"`     // schema-set fingerprint, informational

	MaxConflicts     uint64 `json:"maxConflicts,omitempty"`
	MaxLearntLits    int    `json:"maxLearntLits,omitempty"`
	CheckMemoryBanks bool   `json:"checkMemoryBanks"`

	// Query is the original decision as recorded, including the pair
	// labels (A/B), verdict, witness and solver-work counters.
	Query obs.QueryRecord `json:"query"`
}

// semanticObserver returns the semantic checker's OnQuery hook for one
// tree, or nil when the slow-query log is disabled — the nil keeps the
// checker's decision loops on their zero-allocation path.
func (p *Pipeline) semanticObserver(st *runState, tree *dts.Tree) func(obs.QueryRecord) {
	if p.SlowQuery == nil {
		return nil
	}
	return func(q obs.QueryRecord) {
		if p.SlowQuery.Slow(q.Millis) && p.SlowQueryBundleDir != "" {
			b := &ReproBundle{
				Version:          1,
				Kind:             BundleSemanticPair,
				DTS:              tree.Print(),
				SchemaFP:         st.schemaFP,
				MaxConflicts:     st.limits.Solver.MaxConflicts,
				MaxLearntLits:    st.limits.Solver.MaxLearntLits,
				CheckMemoryBanks: true,
				Query:            q,
			}
			if path, err := WriteReproBundle(p.SlowQueryBundleDir, b); err == nil {
				q.Bundle = path
			}
		}
		p.SlowQuery.Observe(q)
	}
}

// liftedObserver is semanticObserver's counterpart for the lifted
// checker's reachability queries.
func (p *Pipeline) liftedObserver(st *runState) func(obs.QueryRecord) {
	if p.SlowQuery == nil {
		return nil
	}
	return func(q obs.QueryRecord) {
		if p.SlowQuery.Slow(q.Millis) && p.SlowQueryBundleDir != "" {
			b := &ReproBundle{
				Version:       1,
				Kind:          BundleLiftedReach,
				FeatureModel:  p.Model.Format(),
				Guard:         q.Query,
				SchemaFP:      st.schemaFP,
				MaxConflicts:  st.limits.Solver.MaxConflicts,
				MaxLearntLits: st.limits.Solver.MaxLearntLits,
				Query:         q,
			}
			if path, err := WriteReproBundle(p.SlowQueryBundleDir, b); err == nil {
				q.Bundle = path
			}
		}
		p.SlowQuery.Observe(q)
	}
}

// bundleKey computes the bundle's content address from its payload.
func bundleKey(b *ReproBundle) string {
	return checkcache.Key(
		b.Kind, b.DTS, b.FeatureModel, b.Guard,
		fmt.Sprintf("conflicts=%d;learntlits=%d;banks=%v", b.MaxConflicts, b.MaxLearntLits, b.CheckMemoryBanks),
		b.Query.A, b.Query.B,
	)
}

// WriteReproBundle writes b under dir as slowquery-<key-prefix>.json,
// creating dir if needed. Bundles are content-addressed: if a bundle
// for the same query already exists the existing path is returned, so
// a degenerating run cannot flood the directory with duplicates.
func WriteReproBundle(dir string, b *ReproBundle) (string, error) {
	b.Key = bundleKey(b)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("slowquery-%.16s.json", b.Key))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return path, nil
		}
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(b)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		return "", werr
	}
	return path, nil
}

// ReadReproBundle loads a bundle written by WriteReproBundle.
func ReadReproBundle(path string) (*ReproBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ReproBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: bundle %s: %w", path, err)
	}
	switch b.Kind {
	case BundleSemanticPair, BundleLiftedReach:
	default:
		return nil, fmt.Errorf("core: bundle %s: unknown kind %q", path, b.Kind)
	}
	return &b, nil
}

// ReplayResult is the outcome of re-executing a bundle's query.
type ReplayResult struct {
	// Verdict/Witness are the re-executed query's outcome, in the same
	// encoding QueryRecord uses.
	Verdict string  `json:"verdict"`
	Witness string  `json:"witness,omitempty"`
	Millis  float64 `json:"millis"`
	// Match reports whether the outcome agrees with the recorded one:
	// verdict for every kind, witness additionally for semantic pairs
	// (lifted witnesses are non-canonical SAT models).
	Match bool `json:"match"`
}

// Replay re-executes the bundle's query under the recorded knobs and
// compares the outcome against the recorded verdict and witness.
func (b *ReproBundle) Replay(ctx context.Context) (*ReplayResult, error) {
	t0 := time.Now()
	var res *ReplayResult
	var err error
	switch b.Kind {
	case BundleSemanticPair:
		res, err = b.replaySemantic(ctx)
	case BundleLiftedReach:
		res, err = b.replayLifted(ctx)
	default:
		return nil, fmt.Errorf("core: unknown bundle kind %q", b.Kind)
	}
	if err != nil {
		return nil, err
	}
	res.Millis = float64(time.Since(t0)) / float64(time.Millisecond)
	res.Match = res.Verdict == b.Query.Verdict
	// A semantic pair's witness is the overlap address the fixed decision
	// ladder derives, so it must reproduce exactly. A lifted witness is a
	// SAT model — one of possibly many valid configurations — and a fresh
	// solver may legitimately pick a different one, so only the verdict
	// binds there.
	if b.Kind == BundleSemanticPair {
		res.Match = res.Match && res.Witness == b.Query.Witness
	}
	return res, nil
}

// replaySemantic re-runs the full collision search over the bundled
// tree and reads the bundled pair's verdict out of the collision list.
// Re-running the search (rather than one pair in isolation) replays
// the exact decision path, sweep prefilter included, the original
// query went through.
func (b *ReproBundle) replaySemantic(ctx context.Context) (*ReplayResult, error) {
	tree, err := dts.Parse("bundle.dts", b.DTS)
	if err != nil {
		return nil, fmt.Errorf("core: bundle DTS: %w", err)
	}
	sc := constraints.NewSemanticChecker()
	sc.CheckMemoryBanks = b.CheckMemoryBanks
	regions, rerr := addr.CollectRegions(tree)
	if rerr != nil {
		return nil, fmt.Errorf("core: bundle regions: %w", rerr)
	}
	width := addr.BitWidth(tree.Root.AddressCells())
	collisions, cerr := sc.FindCollisionsContext(ctx, regions, width)
	res := &ReplayResult{Verdict: "disjoint"}
	for _, c := range collisions {
		if constraints.RegionLabel(c.A) == b.Query.A && constraints.RegionLabel(c.B) == b.Query.B {
			res.Verdict = "overlap"
			res.Witness = fmt.Sprintf("0x%x", c.Witness)
			break
		}
	}
	if cerr != nil && res.Verdict == "disjoint" {
		res.Verdict = "limit"
	}
	return res, nil
}

// replayLifted re-poses the reachability query: seed a fresh presence
// encoder with the bundled feature model and solve the guard's
// assumption set, exactly as the lifted checker poses it.
func (b *ReproBundle) replayLifted(ctx context.Context) (*ReplayResult, error) {
	model, err := featmodel.ParseModel("bundle.fm", b.FeatureModel)
	if err != nil {
		return nil, fmt.Errorf("core: bundle feature model: %w", err)
	}
	var cond *featmodel.Expr
	if b.Guard != "" && b.Guard != "-" {
		cond, err = featmodel.ParseExpr(b.Guard)
		if err != nil {
			return nil, fmt.Errorf("core: bundle guard: %w", err)
		}
	}
	pe := featmodel.NewPresenceEncoder(model)
	pe.SetBudget(sat.Budget{MaxConflicts: b.MaxConflicts, MaxLearntLits: b.MaxLearntLits})
	st, serr := pe.SolveContext(ctx, pe.Assumptions(nil, cond)...)
	res := &ReplayResult{Verdict: "unsat"}
	switch {
	case serr != nil:
		res.Verdict = "limit"
	case st == sat.Sat:
		res.Verdict = "sat"
		res.Witness = fmt.Sprintf("%v", pe.Config().Sorted())
	}
	return res, nil
}
