// Experiment E17: warm-restart hit-rate recovery of the persistent
// check-cache tier. The claim under test is operational: a server
// restart (deploy, crash, reschedule) with -cache-dir set should NOT
// recompute the checks of trees it already checked — the disk tier
// restores the hit rate a long-lived process had earned in memory.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"llhsc/internal/checkcache"
	"llhsc/internal/checkcache/persist"
	"llhsc/internal/core"
)

// PersistResult is the outcome of experiment E17. Cold is the
// first-ever run (every tree computed, written through to disk); Warm
// is the same run after a simulated process restart — empty memory
// cache, reopened store.
type PersistResult struct {
	VMs    int
	Rounds int

	ColdMillis float64
	WarmMillis float64
	// Speedup is ColdMillis / WarmMillis: how much of the check cost a
	// restart avoids by recovering results from disk.
	Speedup float64

	// WarmHitRate is the restarted process's check-cache hit rate on
	// its first run (hits / lookups); 1.0 means full recovery.
	WarmHitRate float64
	// DiskHits counts warm-run lookups answered by the persistent tier
	// (memory was empty, so every hit is a disk hit).
	DiskHits uint64
	// RecoveredEntries is how many records the open-time recovery scan
	// re-indexed from the segment files.
	RecoveredEntries int
	// StoreBytes is the on-disk footprint after the cold run.
	StoreBytes int64
}

// MeasurePersist measures warm-restart recovery: a cold run populates
// a fresh store, then the store is closed and reopened under an empty
// memory cache (the restart) and the same product line is re-checked.
// Timings keep the best of rounds runs; the recovery stats come from
// a single cold/warm cycle per round (the store directory is recreated
// each round so every cold run is genuinely cold). The gate is full
// recovery: the warm run's hit rate must be 1.0.
func MeasurePersist(vms, rounds int) (*PersistResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	res := &PersistResult{VMs: vms, Rounds: rounds}
	for r := 0; r < rounds; r++ {
		dir, err := os.MkdirTemp("", "llhsc-bench-persist-*")
		if err != nil {
			return nil, err
		}
		cold, warm, err := persistCycle(vms, dir, res)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if res.ColdMillis == 0 || cold < res.ColdMillis {
			res.ColdMillis = cold
		}
		if res.WarmMillis == 0 || warm < res.WarmMillis {
			res.WarmMillis = warm
		}
	}
	if res.WarmMillis > 0 {
		res.Speedup = res.ColdMillis / res.WarmMillis
	}
	if res.WarmHitRate < 1 {
		return nil, fmt.Errorf("warm restart recovered only %.3f of the hit rate", res.WarmHitRate)
	}
	return res, nil
}

// persistCycle runs one cold run + restart + warm run in dir and
// returns the two wall-clock times in milliseconds. The recovery stats
// (hit rate, disk hits, recovered entries) are written into res; they
// are identical across rounds by construction.
func persistCycle(vms int, dir string, res *PersistResult) (coldMs, warmMs float64, err error) {
	runOnce := func(cache *checkcache.Cache) (float64, *core.RunStats, error) {
		pipeline, err := HeavyProductLine(vms)
		if err != nil {
			return 0, nil, err
		}
		pipeline.Cache = cache
		start := time.Now()
		report, err := pipeline.RunContext(context.Background(), core.Limits{Parallelism: 1})
		elapsed := time.Since(start).Seconds() * 1000
		if err != nil {
			return 0, nil, err
		}
		if !report.OK() {
			return 0, nil, fmt.Errorf("unexpected violations: %v", report.AllViolations())
		}
		return elapsed, &report.Stats, nil
	}

	// Cold: fresh store, empty memory — everything is computed and
	// written through.
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	cache := checkcache.New(vms * 4)
	cache.AttachPersist(store, nil)
	coldMs, _, err = runOnce(cache)
	if err != nil {
		store.Close()
		return 0, 0, err
	}
	res.StoreBytes = store.Stats().Bytes
	if err := store.Close(); err != nil {
		return 0, 0, err
	}

	// Restart: a brand-new process state pointed at the same directory.
	store2, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer store2.Close()
	res.RecoveredEntries = store2.Len()
	cache2 := checkcache.New(vms * 4)
	cache2.AttachPersist(store2, nil)
	warmMs, warmStats, err := runOnce(cache2)
	if err != nil {
		return 0, 0, err
	}
	if lookups := warmStats.CacheHits + warmStats.CacheMisses; lookups > 0 {
		res.WarmHitRate = float64(warmStats.CacheHits) / float64(lookups)
	}
	res.DiskHits = cache2.Tier().DiskHits
	return coldMs, warmMs, nil
}

// RunE17 prints the warm-restart recovery measurement (experiment E17).
func RunE17(w io.Writer) error {
	res, err := MeasurePersist(6, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "persistent cache tier, %d VMs + platform (best of %d)\n", res.VMs, res.Rounds)
	fmt.Fprintf(w, "%-24s %10.1fms\n", "cold run (compute all)", res.ColdMillis)
	fmt.Fprintf(w, "%-24s %10.1fms  (%.1fx)\n", "warm restart (from disk)", res.WarmMillis, res.Speedup)
	fmt.Fprintf(w, "%-24s %10.3f\n", "warm hit rate", res.WarmHitRate)
	fmt.Fprintf(w, "%-24s %10d (disk hits %d, %d bytes on disk)\n",
		"recovered entries", res.RecoveredEntries, res.DiskHits, res.StoreBytes)
	return nil
}
