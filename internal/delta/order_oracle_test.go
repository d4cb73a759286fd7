package delta

// Set.Order and Set.Lift decide ordering and ambiguity from data NewSet
// computes once per set. The oracle below is the earlier per-call
// implementation, kept verbatim apart from looking deltas up by name
// through a local map: Kahn's algorithm over name-keyed maps with a
// sort per step, reachability as memoized name sets, and a write-set map
// rebuilt for every pair compared. Its writeSet carries the root-prefix
// normalization, so "/" and absolute-path targets spell the same
// locations. TestOrderMatchesOracle requires byte-identical results.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

func oracleByName(s *Set) map[string]*Delta {
	m := make(map[string]*Delta, len(s.Deltas))
	for _, d := range s.Deltas {
		m[d.Name] = d
	}
	return m
}

func oracleOrder(s *Set, cfg featmodel.Configuration) ([]*Delta, error) {
	byName := oracleByName(s)
	active := s.Active(cfg)
	activeSet := make(map[string]bool, len(active))
	pos := make(map[string]int, len(active))
	for i, d := range active {
		activeSet[d.Name] = true
		pos[d.Name] = i
	}
	succ := make(map[string][]string)
	indeg := make(map[string]int)
	for _, d := range active {
		indeg[d.Name] += 0
		for _, dep := range d.After {
			if activeSet[dep] {
				succ[dep] = append(succ[dep], d.Name)
				indeg[d.Name]++
			}
		}
	}
	var ready []string
	for _, d := range active {
		if indeg[d.Name] == 0 {
			ready = append(ready, d.Name)
		}
	}
	var orderNames []string
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		next := ready[0]
		ready = ready[1:]
		orderNames = append(orderNames, next)
		for _, m := range succ[next] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(orderNames) != len(active) {
		var cyc []string
		for _, d := range active {
			if indeg[d.Name] > 0 {
				cyc = append(cyc, d.Name)
			}
		}
		return nil, &CycleError{Names: cyc}
	}
	if err := oracleCheckAmbiguity(byName, active); err != nil {
		return nil, err
	}
	out := make([]*Delta, len(orderNames))
	for i, n := range orderNames {
		out[i] = byName[n]
	}
	return out, nil
}

func oracleCheckAmbiguity(byName map[string]*Delta, active []*Delta) error {
	activeSet := make(map[string]bool, len(active))
	for _, d := range active {
		activeSet[d.Name] = true
	}
	reach := make(map[string]map[string]bool, len(active))
	var visit func(name string) map[string]bool
	visit = func(name string) map[string]bool {
		if r, ok := reach[name]; ok {
			return r
		}
		r := make(map[string]bool)
		reach[name] = r
		for _, dep := range byName[name].After {
			if !activeSet[dep] {
				continue
			}
			r[dep] = true
			for k := range visit(dep) {
				r[k] = true
			}
		}
		return r
	}
	for _, d := range active {
		visit(d.Name)
	}
	ordered := func(a, b string) bool { return reach[a][b] || reach[b][a] }
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			a, b := active[i], active[j]
			if ordered(a.Name, b.Name) {
				continue
			}
			if loc := oracleWriteConflict(a, b); loc != "" {
				return &AmbiguityError{A: a.Name, B: b.Name, Location: loc}
			}
		}
	}
	return nil
}

func oracleWriteConflict(a, b *Delta) string {
	wa := oracleWriteSet(a)
	wb := oracleWriteSet(b)
	var keys []string
	for k := range wa {
		if wb[k] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	return keys[0]
}

func oracleWriteSet(d *Delta) map[string]bool {
	out := make(map[string]bool)
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAdds, OpModifies:
			var collect func(prefix string, n *dts.Node)
			collect = func(prefix string, n *dts.Node) {
				for _, p := range n.Properties {
					out[prefix+"#"+p.Name] = true
				}
				for _, c := range n.Children {
					cp := prefix + "/" + c.Name
					if prefix == "/" {
						cp = "/" + c.Name
					}
					out[cp] = true
					collect(cp, c)
				}
			}
			collect(op.Target, op.Fragment)
		case OpRemovesNode:
			out[op.Target] = true
		case OpRemovesProperty:
			out[op.Target+"#"+op.PropName] = true
		}
	}
	return out
}

func oracleOrderAll(s *Set) ([]*Delta, error) {
	byName := oracleByName(s)
	pos := make(map[string]int, len(s.Deltas))
	for i, d := range s.Deltas {
		pos[d.Name] = i
	}
	succ := make(map[string][]string)
	indeg := make(map[string]int)
	for _, d := range s.Deltas {
		indeg[d.Name] += 0
		for _, dep := range d.After {
			succ[dep] = append(succ[dep], d.Name)
			indeg[d.Name]++
		}
	}
	var ready []string
	for _, d := range s.Deltas {
		if indeg[d.Name] == 0 {
			ready = append(ready, d.Name)
		}
	}
	var out []*Delta
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		next := ready[0]
		ready = ready[1:]
		out = append(out, byName[next])
		for _, m := range succ[next] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(out) != len(s.Deltas) {
		var cyc []string
		for _, d := range s.Deltas {
			if indeg[d.Name] > 0 {
				cyc = append(cyc, d.Name)
			}
		}
		return nil, &CycleError{Names: cyc}
	}
	return out, nil
}

// oracleFullReach is the memoized reachability oracleRecordAmbiguities
// uses: every after-edge counts, whatever the configuration.
func oracleFullReach(s *Set) map[string]map[string]bool {
	byName := oracleByName(s)
	reach := make(map[string]map[string]bool, len(s.Deltas))
	var visit func(name string) map[string]bool
	visit = func(name string) map[string]bool {
		if r, ok := reach[name]; ok {
			return r
		}
		r := make(map[string]bool)
		reach[name] = r
		for _, dep := range byName[name].After {
			r[dep] = true
			for k := range visit(dep) {
				r[k] = true
			}
		}
		return r
	}
	for _, d := range s.Deltas {
		visit(d.Name)
	}
	return reach
}

func oracleRecordAmbiguities(lt *LiftedTree, s *Set, ordered []*Delta) {
	reach := oracleFullReach(s)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			a, b := ordered[i], ordered[j]
			if reach[a.Name][b.Name] || reach[b.Name][a.Name] {
				continue
			}
			if loc := oracleWriteConflict(a, b); loc != "" {
				lt.Conflicts = append(lt.Conflicts, LiftedConflict{
					Cond:     featmodel.AndOpt(a.When, b.When),
					Delta:    a.Name,
					Location: loc,
					Msg: fmt.Sprintf("%s and %s both write %s with no order between them",
						a.Name, b.Name, loc),
				})
			}
		}
	}
}

func oracleLift(s *Set, core *dts.Tree) (*LiftedTree, error) {
	ordered, err := oracleOrderAll(s)
	if err != nil {
		return nil, err
	}
	lt := &LiftedTree{
		Root:        liftConcreteNode(core.Root),
		MemReserves: append([]dts.MemReserve(nil), core.MemReserves...),
	}
	for _, d := range ordered {
		lt.Order = append(lt.Order, d.Name)
		lt.applyLifted(d)
	}
	oracleRecordAmbiguities(lt, s, ordered)
	return lt, nil
}

// oracleTargets and oracleNames are small pools, so random write sets
// overlap often, under both "/" and absolute-path spellings.
var (
	oracleTargets = []string{"/", "/a", "/a/b", "a", "b"}
	oracleNames   = []string{"a", "b", "p", "q"}
)

func randomFragment(rng *rand.Rand, depth int) *dts.Node {
	n := &dts.Node{Name: "/"}
	for k := rng.Intn(3); k > 0; k-- {
		n.SetProperty(&dts.Property{
			Name:  oracleNames[2+rng.Intn(2)],
			Value: dts.CellsValue(uint32(rng.Intn(4))),
		})
	}
	if depth > 0 {
		for k := rng.Intn(2); k > 0; k-- {
			c := randomFragment(rng, depth-1)
			c.Name = oracleNames[rng.Intn(2)]
			if n.Child(c.Name) == nil {
				n.Children = append(n.Children, c)
			}
		}
	}
	return n
}

func randomOp(rng *rand.Rand) Operation {
	target := oracleTargets[rng.Intn(len(oracleTargets))]
	switch rng.Intn(4) {
	case 0:
		return Operation{Kind: OpAdds, Target: target, Fragment: randomFragment(rng, 1)}
	case 1:
		return Operation{Kind: OpModifies, Target: target, Fragment: randomFragment(rng, 2)}
	case 2:
		return Operation{Kind: OpRemovesNode, Target: target}
	default:
		return Operation{Kind: OpRemovesProperty, Target: target, PropName: oracleNames[2+rng.Intn(2)]}
	}
}

// randomOracleSet draws 2-9 deltas. after-edges follow a random rank
// (so declaration order and topological order differ), sometimes
// repeat, and sometimes close a cycle against the rank.
func randomOracleSet(rng *rand.Rand) []*Delta {
	n := 2 + rng.Intn(8)
	rank := rng.Perm(n)
	deltas := make([]*Delta, n)
	for i := range deltas {
		d := &Delta{Name: fmt.Sprintf("d%d", i)}
		if rng.Intn(4) != 0 {
			d.When = featmodel.Var(fmt.Sprintf("f%d", rng.Intn(4)))
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			d.Ops = append(d.Ops, randomOp(rng))
		}
		deltas[i] = d
	}
	for i, d := range deltas {
		for j := range deltas {
			if rank[j] < rank[i] && rng.Intn(3) == 0 {
				d.After = append(d.After, deltas[j].Name)
				if rng.Intn(8) == 0 {
					d.After = append(d.After, deltas[j].Name)
				}
			}
		}
	}
	if rng.Intn(6) == 0 {
		i, j := rng.Intn(n), rng.Intn(n)
		deltas[i].After = append(deltas[i].After, deltas[j].Name)
	}
	return deltas
}

func hasDuplicateAfter(deltas []*Delta) bool {
	for _, d := range deltas {
		seen := map[string]bool{}
		for _, dep := range d.After {
			if seen[dep] {
				return true
			}
			seen[dep] = true
		}
	}
	return false
}

func deltaNames(ds []*Delta) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	return out
}

func TestOrderMatchesOracle(t *testing.T) {
	core := &dts.Tree{Root: &dts.Node{Name: "/"}}
	a := &dts.Node{Name: "a"}
	a.SetProperty(&dts.Property{Name: "p", Value: dts.CellsValue(1)})
	a.Children = append(a.Children, &dts.Node{Name: "b"})
	core.Root.Children = append(core.Root.Children, a)
	core.Root.SetProperty(&dts.Property{Name: "q", Value: dts.CellsValue(2)})

	outcomes := map[string]int{}
	rng := rand.New(rand.NewSource(18))
	const cases = 600
	for c := 0; c < cases; c++ {
		deltas := randomOracleSet(rng)
		set, err := NewSet(deltas)
		if err != nil {
			t.Fatalf("case %d: NewSet: %v", c, err)
		}
		var feats []string
		for f := 0; f < 4; f++ {
			if rng.Intn(2) == 0 {
				feats = append(feats, fmt.Sprintf("f%d", f))
			}
		}
		cfg := featmodel.ConfigOf(feats...)

		got, gotErr := set.Order(cfg)
		want, wantErr := oracleOrder(set, cfg)
		if !reflect.DeepEqual(deltaNames(got), deltaNames(want)) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("case %d: Order = %v, %v; oracle %v, %v", c, deltaNames(got), gotErr, deltaNames(want), wantErr)
		}
		gotLift, gotLiftErr := set.Lift(core)
		wantLift, wantLiftErr := oracleLift(set, core)
		if !reflect.DeepEqual(gotLiftErr, wantLiftErr) {
			t.Fatalf("case %d: Lift error = %v; oracle %v", c, gotLiftErr, wantLiftErr)
		}
		if gotLiftErr == nil && (!reflect.DeepEqual(gotLift.Order, wantLift.Order) ||
			!reflect.DeepEqual(gotLift.Conflicts, wantLift.Conflicts)) {
			t.Fatalf("case %d: Lift order %v conflicts %v; oracle %v %v",
				c, gotLift.Order, gotLift.Conflicts, wantLift.Order, wantLift.Conflicts)
		}

		if gotLiftErr == nil {
			ambiguous := 0
			for _, lc := range gotLift.Conflicts {
				if strings.HasSuffix(lc.Msg, "with no order between them") {
					ambiguous++
				}
			}
			if ambiguous > 1 {
				outcomes["several lifted ambiguities"]++
			}
		}
		switch e := gotErr.(type) {
		case nil:
			outcomes["clean"]++
			if hasDuplicateAfter(deltas) {
				outcomes["duplicate after, clean"]++
			}
			if gotLiftErr != nil {
				outcomes["cycle through an inactive delta"]++
			}
		case *CycleError:
			outcomes["cycle"]++
		case *AmbiguityError:
			outcomes["ambiguity"]++
			if reach := oracleFullReach(set); gotLiftErr == nil && (reach[e.A][e.B] || reach[e.B][e.A]) {
				outcomes["ordered only through an inactive delta"]++
			}
		}
	}
	t.Logf("%d cases: %v", cases, outcomes)
	for _, o := range []string{"clean", "cycle", "ambiguity", "ordered only through an inactive delta",
		"duplicate after, clean", "cycle through an inactive delta", "several lifted ambiguities"} {
		if outcomes[o] == 0 {
			t.Errorf("no case hit outcome %q", o)
		}
	}
}

// TestRootTargetWritesContend pins the root-prefix normalization: a
// write under a "/" target and the same write under an absolute-path
// target are one location, so unordered deltas making them are
// ambiguous in either declaration order, and Lift records the pair once.
func TestRootTargetWritesContend(t *testing.T) {
	viaRoot := `delta viaRoot { modifies / { uart@1000 { status = "a"; }; } }`
	viaPath := `delta viaPath { modifies /uart@1000 { status = "b"; } }`
	core := mustTree(t, `/dts-v1/; / { uart@1000 { status = "okay"; }; };`)
	for _, src := range []string{viaRoot + "\n" + viaPath, viaPath + "\n" + viaRoot} {
		s := mustSet(t, src)
		_, err := s.Order(featmodel.ConfigOf())
		ae, ok := err.(*AmbiguityError)
		if !ok || ae.Location != "/uart@1000#status" {
			t.Fatalf("%s: Order err = %v, want ambiguity on /uart@1000#status", src, err)
		}
		lt, err := s.Lift(core)
		if err != nil {
			t.Fatal(err)
		}
		if len(lt.Conflicts) != 1 || lt.Conflicts[0].Location != "/uart@1000#status" {
			t.Errorf("%s: lifted conflicts = %v, want one on /uart@1000#status", src, lt.Conflicts)
		}
	}
}

// TestOrderAllocs bounds the allocations of one Order call on a
// removal-only set shaped like the synthetic line (8 CPUs, 25 UARTs,
// bare-name targets, one VM's configuration). Rebuilding write-set maps
// per compared pair cost 1,990 allocations here.
func TestOrderAllocs(t *testing.T) {
	var deltas []*Delta
	for i := 0; i < 8; i++ {
		deltas = append(deltas, &Delta{
			Name: fmt.Sprintf("rm_cpu%d", i),
			When: featmodel.Not(featmodel.Var(fmt.Sprintf("cpu@%d", i))),
			Ops:  []Operation{{Kind: OpRemovesNode, Target: fmt.Sprintf("cpu@%d", i)}},
		})
	}
	for i := 0; i < 25; i++ {
		deltas = append(deltas, &Delta{
			Name: fmt.Sprintf("rm_uart%d", i),
			When: featmodel.Not(featmodel.Var(fmt.Sprintf("uart%d", i))),
			Ops:  []Operation{{Kind: OpRemovesNode, Target: fmt.Sprintf("uart@%x", 0x10000000+i*0x10000)}},
		})
	}
	set, err := NewSet(deltas)
	if err != nil {
		t.Fatal(err)
	}
	cfg := featmodel.ConfigOf("BigBoard", "memory", "cpus", "cpu@0", "uarts", "uart0")
	ordered, err := set.Order(cfg)
	if err != nil || len(ordered) != 31 {
		t.Fatalf("Order = %d deltas, %v; want 31", len(ordered), err)
	}
	const bound = 8
	if got := testing.AllocsPerRun(100, func() { set.Order(cfg) }); got > bound {
		t.Errorf("Order allocates %.0f times per call, want <= %d", got, bound)
	}
}
