package core

import (
	"fmt"
	"sync"

	"llhsc/internal/addr"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// FrontEnd is the input of the paper's workflow (Fig. 2), parsed: the
// core module, the delta-module set and the feature model, plus the
// name a Cache knows them by. It is read-only once built, so pipelines
// on any number of goroutines may share one (DESIGN.md §8), and it
// lifts its product line once for all of them (Lifted).
type FrontEnd struct {
	// Identity names the front end in the cache key: front ends that
	// share a Cache and an Identity must come from the same inputs (the
	// service's is their digest). Required when a Pipeline has a Cache.
	Identity string
	// Core is the core-module DTS (Listing 1).
	Core *dts.Tree
	// Deltas is the product line's delta-module set (Listing 4).
	Deltas *delta.Set
	// Model is the feature model (Fig. 1a).
	Model *featmodel.Model

	liftOnce sync.Once // builds lifted and liftErr (Lifted)
	lifted   *delta.LiftedTree
	liftErr  error
}

// ParseFrontEnd parses the delta-module set and the feature model,
// each text under its file name for error positions, into a front end
// over coreTree. The caller parses the core DTS, whose includer and
// limits differ between callers. A parse error names its input:
// "deltas: ..." or "feature model: ...".
func ParseFrontEnd(identity string, coreTree *dts.Tree, deltasFile, deltasText, modelFile, modelText string) (*FrontEnd, error) {
	deltas, err := delta.Parse(deltasFile, deltasText)
	if err != nil {
		return nil, fmt.Errorf("deltas: %w", err)
	}
	model, err := featmodel.ParseModel(modelFile, modelText)
	if err != nil {
		return nil, fmt.Errorf("feature model: %w", err)
	}
	return &FrontEnd{Identity: identity, Core: coreTree, Deltas: deltas, Model: model}, nil
}

// Lifted returns the variability-aware merged tree of the whole
// product line, Deltas.Lift of Core (DESIGN.md §14). The first call
// lifts; every later call, from any goroutine, returns the same tree
// or error. The tree is shared, so nothing may write it, and Core and
// Deltas must not change once Lifted has been called.
func (fe *FrontEnd) Lifted() (*delta.LiftedTree, error) {
	fe.liftOnce.Do(func() { fe.lifted, fe.liftErr = fe.Deltas.Lift(fe.Core) })
	return fe.lifted, fe.liftErr
}

// RunningExample is the paper's running example as a pipeline: the
// core module of Listings 1 and 2, the delta modules of Listing 4 and
// the feature model of Fig. 1a, checking the VMs of Figs. 1b and 1c,
// named vm1 and vm2, against the standard schemas.
func RunningExample() (*Pipeline, error) {
	tree, err := runningexample.Tree()
	if err != nil {
		return nil, err
	}
	deltas, err := runningexample.Deltas()
	if err != nil {
		return nil, err
	}
	model, err := runningexample.Model()
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		FrontEnd:  &FrontEnd{Core: tree, Deltas: deltas, Model: model},
		Schemas:   schema.StandardSet(),
		VMConfigs: []featmodel.Configuration{runningexample.VM1Config(), runningexample.VM2Config()},
		VMNames:   []string{"vm1", "vm2"},
	}, nil
}

// ipcWindows counts the IPC windows the product line declares, the
// bound on its shmem ids (baogen.CheckShmems): the virtual-device
// nodes (addr.KindVirtual) of the core and of every delta fragment.
func (fe *FrontEnd) ipcWindows() int {
	n := countIPCWindows(fe.Core.Root)
	for _, d := range fe.Deltas.Deltas {
		for _, op := range d.Ops {
			if op.Fragment != nil {
				n += countIPCWindows(op.Fragment)
			}
		}
	}
	return n
}

// countIPCWindows counts the virtual-device nodes of n's subtree.
func countIPCWindows(n *dts.Node) int {
	c := 0
	if addr.NodeKind(n) == addr.KindVirtual {
		c = 1
	}
	for _, child := range n.Children {
		c += countIPCWindows(child)
	}
	return c
}
