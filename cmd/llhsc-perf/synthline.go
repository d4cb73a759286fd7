package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"llhsc/internal/bench"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/service"
)

// The line-cached workload: experiment E12/E16's synthetic board with
// lineCPUs exclusive CPUs and lineUARTs UARTs, plus one planted UART
// whose window starts inside uart0's. Every request partitions the board
// into lineVMs VMs; the pool is large enough that its trees overflow the
// server's default check cache, and Zipf traffic makes a few bodies
// popular.
const (
	lineCPUs       = 8
	lineUARTs      = 24
	lineVMs        = 8
	lineUARTsPerVM = 4
	linePoolSize   = 128
	lineZipfS      = 1.1

	plantedUART = lineUARTs // feature uart24, node uart@10000800
)

// uartWindow is the address window of UART i as the synthetic board lays
// it out: 4 KiB every 64 KiB from 0x10000000, and the planted one half
// way into uart0.
func uartWindow(i int) (base, size uint64) {
	if i == plantedUART {
		return 0x10000800, 0x1000
	}
	return 0x10000000 + uint64(i)*0x10000, 0x1000
}

// syntheticLine is bench.SyntheticProductLine with the planted UART
// added to the core, to the feature model's UART group and to the
// removal deltas.
func syntheticLine() (*core.Pipeline, error) {
	p, err := bench.SyntheticProductLine(lineCPUs, lineUARTs, lineVMs)
	if err != nil {
		return nil, err
	}
	base, size := uartWindow(plantedUART)
	name := fmt.Sprintf("uart%d", plantedUART)
	node := fmt.Sprintf("uart@%x", base)
	u := p.Core.Root.EnsureChild(node)
	u.Label = name
	u.SetProperty(&dts.Property{Name: "compatible", Value: dts.StringValueOf("ns16550a")})
	u.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(uint32(base), uint32(size))})

	root := p.Model.Root
	var uarts *featmodel.Feature
	for _, c := range root.Children {
		if c.Name == "uarts" {
			uarts = c
		}
	}
	if uarts == nil {
		return nil, fmt.Errorf("synthetic line: no uarts group in %s", root.Name)
	}
	uarts.Children = append(uarts.Children, &featmodel.Feature{Name: name, Group: featmodel.GroupAnd})
	if p.Model, err = featmodel.NewModel(root, p.Model.Constraints...); err != nil {
		return nil, err
	}
	deltas := append(p.Deltas.Deltas, &delta.Delta{
		Name: "rm_" + name,
		When: featmodel.Not(featmodel.Var(name)),
		Ops:  []delta.Operation{{Kind: delta.OpRemovesNode, Target: node}},
	})
	if p.Deltas, err = delta.NewSet(deltas); err != nil {
		return nil, err
	}
	return p, nil
}

// formatDeltas renders a delta set in the Listing-4 syntax delta.Parse
// reads. Only the removal operations the synthetic line uses are
// rendered.
func formatDeltas(s *delta.Set) (string, error) {
	var b strings.Builder
	for _, d := range s.Deltas {
		fmt.Fprintf(&b, "delta %s", d.Name)
		if len(d.After) > 0 {
			fmt.Fprintf(&b, " after %s", strings.Join(d.After, ", "))
		}
		if d.When != nil {
			fmt.Fprintf(&b, " when %s", d.When)
		}
		b.WriteString(" {\n")
		for _, op := range d.Ops {
			switch op.Kind {
			case delta.OpRemovesNode:
				fmt.Fprintf(&b, "    removes node %s;\n", op.Target)
			case delta.OpRemovesProperty:
				fmt.Fprintf(&b, "    removes property %s %s;\n", op.Target, op.PropName)
			default:
				return "", fmt.Errorf("delta %s: cannot render a %v operation", d.Name, op.Kind)
			}
		}
		b.WriteString("}\n\n")
	}
	return b.String(), nil
}

// lineText is the synthetic line as request text: the core through
// Tree.Print, the model through Model.Format, the deltas in Listing-4
// syntax.
type lineText struct {
	core, model, deltas string
}

func renderLine(p *core.Pipeline) (lineText, error) {
	deltas, err := formatDeltas(p.Deltas)
	return lineText{core: p.Core.Print(), model: p.Model.Format(), deltas: deltas}, err
}

// lineBody is one request of the line-cached pool: the CPU and the UARTs
// (indices into the board, plantedUART included) of every VM.
type lineBody struct {
	cpus  [lineVMs]int
	uarts [lineVMs][]int
}

// Body classes fix how each body may fail. The class of the body at
// popularity rank r is lineClasses[r%8], so every class takes the same
// share of the traffic whatever the seed; the seed only picks CPUs, UART
// subsets and which VMs take the planted window.
const (
	classClean          = iota // no uart24 anywhere
	classSharedCPU             // two VMs take the same exclusive CPU
	classVMCollision           // one VM holds both uart0 and uart24
	classPlatformOnly          // uart0 and uart24 sit in different VMs
	classPlantedNoUART0        // uart24 without uart0 anywhere
)

var lineClasses = [8]int{
	classClean, classVMCollision, classClean, classSharedCPU,
	classPlatformOnly, classClean, classPlantedNoUART0, classClean,
}

// newLineBody draws a body of the given class. Each VM k runs on cpu@k
// and holds lineUARTsPerVM distinct UARTs from uart1..uart23; the class
// then rewires one CPU or swaps uart0/uart24 into chosen VMs.
func newLineBody(rng *rand.Rand, class int) lineBody {
	var b lineBody
	for k := range b.cpus {
		b.cpus[k] = k
		perm := rng.Perm(lineUARTs - 1)
		for _, u := range perm[:lineUARTsPerVM] {
			b.uarts[k] = append(b.uarts[k], u+1)
		}
	}
	vm := rng.Intn(lineVMs)
	other := (vm + 1 + rng.Intn(lineVMs-1)) % lineVMs
	switch class {
	case classClean:
		if rng.Intn(2) == 0 {
			b.uarts[vm][0] = 0
		}
	case classSharedCPU:
		b.cpus[vm] = b.cpus[other]
	case classVMCollision:
		b.uarts[vm][0], b.uarts[vm][1] = 0, plantedUART
	case classPlatformOnly:
		b.uarts[vm][0], b.uarts[other][0] = 0, plantedUART
	case classPlantedNoUART0:
		b.uarts[vm][0] = plantedUART
	}
	return b
}

// configs returns each VM's feature selection in request form.
func (b lineBody) configs() [][]string {
	out := make([][]string, lineVMs)
	for k := range out {
		sel := []string{"memory", fmt.Sprintf("cpu@%d", b.cpus[k])}
		for _, u := range b.uarts[k] {
			sel = append(sel, fmt.Sprintf("uart%d", u))
		}
		out[k] = sel
	}
	return out
}

// expected works the verdict out from the body alone: an allocation
// conflict exactly when two VMs share a CPU, and an overlap in a tree
// exactly when two of its UART windows intersect by address arithmetic.
// The platform tree holds every UART some VM holds.
func (b lineBody) expected() verdict {
	var findings []string
	seen := map[int]bool{}
	for _, c := range b.cpus {
		if seen[c] {
			findings = append(findings, "allocation allocation:conflict")
		}
		seen[c] = true
	}
	union := map[int]bool{}
	for k, us := range b.uarts {
		if windowsOverlap(us) {
			findings = append(findings, fmt.Sprintf("vm%d semantic:overlap", k+1))
		}
		for _, u := range us {
			union[u] = true
		}
	}
	var all []int
	for u := range union {
		all = append(all, u)
	}
	if windowsOverlap(all) {
		findings = append(findings, "platform semantic:overlap")
	}
	return newVerdict(len(findings) == 0, findings)
}

func windowsOverlap(uarts []int) bool {
	for i := range uarts {
		for j := i + 1; j < len(uarts); j++ {
			ab, as := uartWindow(uarts[i])
			bb, bs := uartWindow(uarts[j])
			if ab < bb+bs && bb < ab+as {
				return true
			}
		}
	}
	return false
}

// linePool builds the line-cached pool: linePoolSize bodies, body r the
// r-th most popular, sent in Zipf proportions.
func linePool(seed int64) (*pool, error) {
	line, err := syntheticLine()
	if err != nil {
		return nil, err
	}
	text, err := renderLine(line)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &pool{}
	for r := 0; r < linePoolSize; r++ {
		b := newLineBody(rng, lineClasses[r%len(lineClasses)])
		req := service.CheckRequest{
			CoreDTS:      text.core,
			Deltas:       text.deltas,
			FeatureModel: text.model,
			VMs:          b.configs(),
		}
		if err := p.add(req, b.expected()); err != nil {
			return nil, err
		}
	}
	p.stream = smoothStream(zipfWeights())
	return p, nil
}

// zipfWeights gives body r a share proportional to 1/(r+1)^lineZipfS,
// in whole requests per about 1000, in which even the rarest body comes
// up once.
func zipfWeights() []int {
	const block = 1000
	shares := make([]float64, linePoolSize)
	var total float64
	for r := range shares {
		shares[r] = 1 / math.Pow(float64(r+1), lineZipfS)
		total += shares[r]
	}
	weights := make([]int, linePoolSize)
	for r, s := range shares {
		weights[r] = max(1, int(math.Round(block*s/total)))
	}
	return weights
}
