package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound (a share of the old median).
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per workload and end-to-end metric, each
// report's median and quartiles over rounds and a label, and fails when
// any pairing is worse. failed_ratio must not rise at all.
func compareReports(paths []string, specPath string, stdout io.Writer) error {
	if len(paths) != 2 {
		return errors.New("-compare wants two reports: old.json new.json")
	}
	var sp spec
	var old, cur report
	for _, r := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {paths[0], &old}, {paths[1], &cur}} {
		if err := readJSON(r.path, r.v); err != nil {
			return err
		}
	}
	type rule struct {
		name, better string
		bound        float64
	}
	rules := []rule{{failedRatio, "lower", 0}}
	for _, m := range sp.EndToEnd {
		rules = append(rules, rule{m.Name, m.Better, m.Bound})
	}
	fmt.Fprintf(stdout, "%-15s %-17s %-16s %-40s %-40s %8s  %s\n",
		"workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "label")
	worse := 0
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			return fmt.Errorf("workload %s missing from %s", ow.Name, paths[1])
		}
		for _, r := range rules {
			o, okOld := ow.EndToEnd[r.name]
			n, okNew := nw.EndToEnd[r.name]
			if !okOld || !okNew {
				return fmt.Errorf("workload %s: metric %s missing", ow.Name, r.name)
			}
			label := judge(o.Rounds, n.Rounds, r.better == "lower", r.bound)
			if label == "worse" {
				worse++
			}
			oq, nq := quartiles(o.Rounds), quartiles(n.Rounds)
			change := 0.0
			if oq[1] != 0 {
				change = 100 * (nq[1] - oq[1]) / oq[1]
			}
			fmt.Fprintf(stdout, "%-15s %-17s %-16s %-40s %-40s %+7.2f%%  %s\n", ow.Name, r.name, o.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", oq[1], oq[0], oq[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", nq[1], nq[0], nq[2]), change, label)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload/metric pairings regressed beyond their bound", worse)
	}
	return nil
}

// judge labels one pairing of old and new rounds:
//
//   - unresolved: the old rounds' own spread (interquartile range over
//     median) exceeds the bound, unless every new round beats every old
//     one;
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the new median is better by more than the old spread;
//   - same: otherwise.
//
// A metric whose old median is 0 (failed_ratio) is worse as soon as any
// new round moves off 0 the wrong way.
func judge(old, cur []float64, lowerBetter bool, bound float64) string {
	oq, nq := quartiles(old), quartiles(cur)
	if oq[1] == 0 {
		for _, n := range cur {
			if (lowerBetter && n > 0) || (!lowerBetter && n < 0) {
				return "worse"
			}
		}
		return "same"
	}
	worseBy := (nq[1] - oq[1]) / oq[1]
	if !lowerBetter {
		worseBy = -worseBy
	}
	spread := (oq[2] - oq[0]) / oq[1]
	switch {
	case allBetter(old, cur, lowerBetter):
		return "better"
	case spread > bound:
		return "unresolved"
	case worseBy > bound:
		return "worse"
	case -worseBy > spread:
		return "better"
	}
	return "same"
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, lowerBetter bool) bool {
	for _, o := range old {
		for _, n := range cur {
			if (lowerBetter && n >= o) || (!lowerBetter && n <= o) {
				return false
			}
		}
	}
	return true
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so spreads read the same as in any script checking the benchmark.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return [3]float64{}
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
