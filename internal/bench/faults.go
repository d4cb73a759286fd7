package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"llhsc/internal/constraints"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/logic"
	"llhsc/internal/runningexample"
	"llhsc/internal/sat"
	"llhsc/internal/schema"
)

// Fault identifies one injectable fault class for the E10 detection
// matrix (DESIGN.md §4). The six classes span the failure modes the
// paper discusses: structural schema violations (detected by dt-schema
// and llhsc), pure syntax errors (detected by every tool), and the
// semantic/dependency faults only llhsc catches.
type Fault int

// Fault classes.
const (
	FaultSyntaxError       Fault = iota + 1 // malformed DTS text
	FaultMissingRequired                    // required property absent
	FaultBadConst                           // device_type value wrong
	FaultBadRegArity                        // reg cell count not a multiple of the stride
	FaultAddrOverlap                        // two regions share addresses (Section I-A)
	FaultTruncation                         // 64→32-bit cell reinterpretation (Section IV-C)
	FaultMissingNodeDep                     // feature-model dependency violated (cpu without memory)
	FaultDuplicateIRQ                       // two devices claim the same interrupt line
	FaultReserveOutsideRAM                  // /memreserve/ outside every memory bank
	FaultPathologicalCNF                    // solver-hostile input that exhausts the conflict budget
	FaultDeepNesting                        // DTS nested past the parser depth guard
)

// AllFaults lists every fault class in presentation order.
func AllFaults() []Fault {
	return []Fault{
		FaultSyntaxError, FaultMissingRequired, FaultBadConst,
		FaultBadRegArity, FaultAddrOverlap, FaultTruncation,
		FaultMissingNodeDep, FaultDuplicateIRQ, FaultReserveOutsideRAM,
		FaultPathologicalCNF, FaultDeepNesting,
	}
}

func (f Fault) String() string {
	switch f {
	case FaultSyntaxError:
		return "syntax error"
	case FaultMissingRequired:
		return "missing required property"
	case FaultBadConst:
		return "wrong const value"
	case FaultBadRegArity:
		return "bad reg arity"
	case FaultAddrOverlap:
		return "address overlap"
	case FaultTruncation:
		return "64->32-bit truncation"
	case FaultMissingNodeDep:
		return "missing node dependency"
	case FaultDuplicateIRQ:
		return "duplicate interrupt"
	case FaultReserveOutsideRAM:
		return "memreserve outside RAM"
	case FaultPathologicalCNF:
		return "pathological CNF"
	case FaultDeepNesting:
		return "deep nesting"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// FaultSource returns the DTS source text and includer for a fault
// class, for callers outside the package (e.g. the core determinism
// tests) that want to run the corpus through their own pipeline. Note
// FaultSyntaxError and FaultDeepNesting do not parse, and
// FaultPathologicalCNF has no DTS form (this function panics on it,
// like every unknown fault).
func FaultSource(f Fault) (string, dts.Includer) {
	return faultyDTS(f)
}

// faultyDTS returns the running-example DTS with the fault injected
// (as source text, so that FaultSyntaxError is expressible).
func faultyDTS(f Fault) (string, dts.Includer) {
	inc := runningexample.Includer()
	switch f {
	case FaultSyntaxError:
		return runningexample.CoreDTS + "\n/ { broken = ; };\n", inc
	case FaultMissingRequired:
		// drop device_type from the memory node
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};
	uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
};
`, inc
	case FaultBadConst:
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "ram";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};
};
`, inc
	case FaultBadRegArity:
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000 0x0>;
	};
};
`, inc
	case FaultAddrOverlap:
		// Section I-A: uart moved onto the second memory bank
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
	uart0: uart@60000000 { compatible = "ns16550a"; reg = <0x0 0x60000000 0x0 0x1000>; };
};
`, inc
	case FaultTruncation:
		// Section IV-C: 32-bit cells over a 64-bit reg layout
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
};
`, inc
	case FaultMissingNodeDep:
		// a CPU is described but the mandatory memory node is absent
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
};
`, inc
	case FaultDuplicateIRQ:
		return `
/dts-v1/;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};
	uart0: uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
		interrupts = <7>;
	};
	uart1: uart@30000000 {
		compatible = "ns16550a";
		reg = <0x0 0x30000000 0x0 0x1000>;
		interrupts = <7>;
	};
};
`, inc
	case FaultReserveOutsideRAM:
		return `
/dts-v1/;
/memreserve/ 0x10000000 0x1000;
/include/ "cpus.dtsi"
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};
	uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
};
`, inc
	case FaultDeepNesting:
		// nested twice past the parser's default depth guard
		return deepNestedDTS(128), inc
	default:
		panic(fmt.Sprintf("bench: unknown fault %d", int(f)))
	}
}

// deepNestedDTS returns a syntactically well-formed tree of the given
// node depth, used to probe the parser's recursion guard.
func deepNestedDTS(depth int) string {
	var b strings.Builder
	b.WriteString("/dts-v1/;\n/ {\n")
	for i := 0; i < depth; i++ {
		b.WriteString("n {\n")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("};\n")
	}
	b.WriteString("};\n")
	return b.String()
}

// HardRandomCNF returns a random 3-CNF over nVars variables at the
// phase-transition clause/variable ratio (~4.26), where random
// instances are empirically hardest for CDCL solvers. The fixed seed
// keeps the instance reproducible; seed 1 over 250 variables is
// verified (TestRobustnessFaultsBounded) to exceed a 500-conflict
// budget, which stands in for the solver-hostile inputs a hostile
// tenant could submit to the cloud service.
func HardRandomCNF(nVars int, seed int64) [][]logic.Lit {
	rng := rand.New(rand.NewSource(seed))
	nClauses := int(4.26 * float64(nVars))
	clauses := make([][]logic.Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		vars := rng.Perm(nVars)[:3]
		cl := make([]logic.Lit, 3)
		for j, v := range vars {
			l := logic.Lit(v + 1)
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl[j] = l
		}
		clauses = append(clauses, cl)
	}
	return clauses
}

// pathologicalCNFDetection runs the hard random instance under a tight
// conflict budget and a 2 s context timeout: the interesting property
// is not *what* is detected but that the solver answers a structured
// Unknown within its bounds instead of hanging.
func pathologicalCNFDetection() Detection {
	s := sat.New()
	for _, cl := range HardRandomCNF(250, 1) {
		s.AddClause(cl...)
	}
	s.SetBudget(sat.Budget{MaxConflicts: 500})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	status, err := s.SolveContext(ctx)
	bounded := status == sat.Unknown && err != nil
	return Detection{
		Fault:   FaultPathologicalCNF,
		LLHSC:   bounded, // reported as a structured limit, not a hang
		Bounded: bounded,
	}
}

// Detection records which tool catches a fault.
type Detection struct {
	Fault    Fault
	DtcLint  bool // syntax-only: the mini-dtc parser
	Baseline bool // dt-schema-equivalent structural validation
	LLHSC    bool // full llhsc checking
	Bounded  bool // reported as a structured resource-limit stop
}

// DetectionMatrix runs every fault class through the three detectors
// and returns the matrix (experiment E10). The expected shape: dtc-lint
// catches only the syntax fault; the baseline catches the structural
// three; llhsc catches everything.
func DetectionMatrix() ([]Detection, error) {
	model, err := runningexample.Model()
	if err != nil {
		return nil, err
	}
	var out []Detection
	for _, f := range AllFaults() {
		if f == FaultPathologicalCNF {
			// not a DTS fault: probes the solver's conflict budget
			out = append(out, pathologicalCNFDetection())
			continue
		}
		src, inc := faultyDTS(f)
		det := Detection{Fault: f}

		tree, parseErr := dts.Parse("faulty.dts", src, dts.WithIncluder(inc))
		det.DtcLint = parseErr != nil
		det.Bounded = errors.Is(parseErr, dts.ErrTooDeep)
		if parseErr != nil {
			// unparsable: every downstream tool also reports it
			det.Baseline = true
			det.LLHSC = true
			out = append(out, det)
			continue
		}

		det.Baseline = len(schema.StandardSet().Validate(tree)) > 0

		// llhsc: every per-tree family, plus the dependency check. No
		// deadline, so the families always run to the end.
		vs, _ := constraints.CheckFamilies(context.Background(), constraints.Families[:], schema.StandardSet(), &constraints.TreeFacts{Tree: tree})
		vs = append(vs, checkNodeDependencies(tree, model)...)
		det.LLHSC = len(vs) > 0
		out = append(out, det)
	}
	return out, nil
}

// checkNodeDependencies validates that the tree's device complement is
// a valid *platform* of the feature model — the "required device node"
// check that dt-schema cannot express (Section I). A platform may
// combine resources that are exclusive between VMs (both CPUs appear in
// the board DTS), so XOR groups of Exclusive features are relaxed to OR
// before checking.
func checkNodeDependencies(tree *dts.Tree, model *featmodel.Model) []constraints.Violation {
	platform := PlatformModel(model)
	cfg := TreeConfiguration(tree, platform)
	lits := platform.Conflict(cfg)
	if lits == nil {
		return nil
	}
	return []constraints.Violation{{
		Rule: "allocation:dependency",
		Message: fmt.Sprintf("device complement %v is not a valid platform of the feature model (%v)",
			cfg.Sorted(), lits),
	}}
}

// PlatformModel derives the platform view of a feature model: XOR
// groups whose children are Exclusive resources become OR groups (the
// platform is the union of the VM products, Section III-A).
func PlatformModel(model *featmodel.Model) *featmodel.Model {
	var clone func(f *featmodel.Feature) *featmodel.Feature
	clone = func(f *featmodel.Feature) *featmodel.Feature {
		c := &featmodel.Feature{
			Name: f.Name, Abstract: f.Abstract, Mandatory: f.Mandatory,
			Exclusive: f.Exclusive, Group: f.Group,
		}
		if f.Group == featmodel.GroupXor {
			allExclusive := len(f.Children) > 0
			for _, ch := range f.Children {
				if !ch.Exclusive {
					allExclusive = false
				}
			}
			if allExclusive {
				c.Group = featmodel.GroupOr
			}
		}
		for _, ch := range f.Children {
			c.Children = append(c.Children, clone(ch))
		}
		return c
	}
	m, err := featmodel.NewModel(clone(model.Root), model.Constraints...)
	if err != nil {
		// cloning preserves name uniqueness and constraint references
		panic(err)
	}
	return m
}

// TreeConfiguration derives the feature selection a tree realizes: a
// concrete feature is selected iff a node with its name or label
// exists; an abstract feature is selected iff any of its children is.
func TreeConfiguration(tree *dts.Tree, model *featmodel.Model) featmodel.Configuration {
	present := make(map[string]bool)
	tree.Root.Walk(func(_ string, n *dts.Node) bool {
		present[n.Name] = true
		present[n.BaseName()] = true // "memory@40000000" realizes feature "memory"
		if n.Label != "" {
			present[n.Label] = true
		}
		return true
	})
	cfg := make(featmodel.Configuration)
	var walk func(f *featmodel.Feature) bool // reports selected
	walk = func(f *featmodel.Feature) bool {
		anyChild := false
		for _, c := range f.Children {
			if walk(c) {
				anyChild = true
			}
		}
		selected := anyChild
		if !f.Abstract && present[f.Name] {
			selected = true
		}
		if selected {
			cfg[f.Name] = true
		}
		return selected
	}
	walk(model.Root)
	cfg[model.Root.Name] = true
	return cfg
}
