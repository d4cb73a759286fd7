package constraints

import (
	"context"
	"errors"
	"strings"
	"testing"

	"llhsc/internal/sat"
)

func TestMemReserveClean(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x40000000 0x4000;
/memreserve/ 0x48000000 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
};
`)
	if vs := (MemReserveChecker{}).Check(tree); len(vs) != 0 {
		t.Errorf("clean reserves flagged: %v", vs)
	}
}

func TestMemReserveOutsideRAM(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x10000000 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
};
`)
	vs := MemReserveChecker{}.Check(tree)
	if len(vs) != 1 || vs[0].Rule != "semantic:memreserve-outside-ram" {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].Message, "0x1") {
		t.Errorf("message = %q", vs[0].Message)
	}
}

func TestMemReserveStraddlingBankEdge(t *testing.T) {
	// starts inside RAM but runs past the end of the bank
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x5ffff000 0x2000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
};
`)
	vs := MemReserveChecker{}.Check(tree)
	if len(vs) != 1 || vs[0].Rule != "semantic:memreserve-outside-ram" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestMemReserveSpanningTwoAdjacentBanks(t *testing.T) {
	// adjacent banks cover [0x40000000, 0x80000000): a reserve across
	// the seam is fine — every address is in SOME bank.
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x5fff0000 0x20000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000
		       0x60000000 0x20000000>;
	};
};
`)
	if vs := (MemReserveChecker{}).Check(tree); len(vs) != 0 {
		t.Errorf("seam-spanning reserve flagged: %v", vs)
	}
}

func TestMemReserveOverlapEachOther(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x40000000 0x2000;
/memreserve/ 0x40001000 0x2000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
};
`)
	vs := MemReserveChecker{}.Check(tree)
	found := false
	for _, v := range vs {
		if v.Rule == "semantic:memreserve-overlap" {
			found = true
		}
	}
	if !found {
		t.Errorf("overlapping reserves not flagged: %v", vs)
	}
}

func TestMemReserveNoEntries(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/ { };
`)
	if vs := (MemReserveChecker{}).Check(tree); vs != nil {
		t.Errorf("no reserves should mean no violations: %v", vs)
	}
}

// TestMemReserveCheckerCanceled: the reserve loop polls the context
// itself and stops with a typed *sat.LimitError on a canceled one.
func TestMemReserveCheckerCanceled(t *testing.T) {
	tree := mustTree(t, `
/dts-v1/;
/memreserve/ 0x10000000 0x1000;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
};
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vs, err := MemReserveChecker{}.CheckContext(ctx, tree)
	var lim *sat.LimitError
	if !errors.As(err, &lim) || lim.Reason != sat.StopCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (%T), want *sat.LimitError{StopCanceled} wrapping context.Canceled", err, err)
	}
	if len(vs) != 0 {
		t.Errorf("canceled check reported %v", vs)
	}
}
