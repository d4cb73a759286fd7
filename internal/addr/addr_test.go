package addr

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"llhsc/internal/dts"
)

func TestParseReg64Bit(t *testing.T) {
	// The running example: two 64-bit banks, #address-cells=2, #size-cells=2.
	cells := []uint32{
		0x0, 0x40000000, 0x0, 0x20000000,
		0x0, 0x60000000, 0x0, 0x20000000,
	}
	entries, err := ParseReg(cells, 2, 2)
	if err != nil {
		t.Fatalf("ParseReg: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Address != 0x40000000 || entries[0].Size != 0x20000000 {
		t.Errorf("bank 0 = %+v", entries[0])
	}
	if entries[1].Address != 0x60000000 || entries[1].Size != 0x20000000 {
		t.Errorf("bank 1 = %+v", entries[1])
	}
}

func TestParseReg32BitTruncation(t *testing.T) {
	// Section IV-C: the same 8 cells re-read with #address-cells=1,
	// #size-cells=1 become FOUR banks, two of them based at 0x0.
	cells := []uint32{
		0x0, 0x40000000, 0x0, 0x20000000,
		0x0, 0x60000000, 0x0, 0x20000000,
	}
	entries, err := ParseReg(cells, 1, 1)
	if err != nil {
		t.Fatalf("ParseReg: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4 (the paper's truncation scenario)", len(entries))
	}
	if entries[0].Address != 0 || entries[1].Address != 0 {
		t.Errorf("banks 0,1 = %+v, %+v; both should be based at 0x0", entries[0], entries[1])
	}
	// banks 0 and 1 collide at address 0x0
	r0 := Region{Base: entries[0].Address, Size: entries[0].Size}
	r1 := Region{Base: entries[1].Address, Size: entries[1].Size}
	if !r0.Overlaps(r1) {
		t.Error("truncated banks should overlap at 0x0")
	}
}

func TestParseRegIdentifiers(t *testing.T) {
	// CPU-style reg: #size-cells = 0, reg is an id.
	entries, err := ParseReg([]uint32{0x1}, 1, 0)
	if err != nil {
		t.Fatalf("ParseReg: %v", err)
	}
	if len(entries) != 1 || entries[0].Address != 1 || entries[0].Size != 0 {
		t.Errorf("entries = %+v", entries)
	}
}

func TestParseRegErrors(t *testing.T) {
	if _, err := ParseReg([]uint32{1, 2, 3}, 1, 1); !errors.Is(err, ErrArity) {
		t.Errorf("odd cells: %v, want ErrArity", err)
	}
	if _, err := ParseReg([]uint32{1}, 3, 0); !errors.Is(err, ErrTooWide) {
		t.Errorf("3 address cells: %v, want ErrTooWide", err)
	}
	if _, err := ParseReg([]uint32{1}, 0, 1); err == nil {
		t.Error("0 address cells should error")
	}
}

func TestRegionPredicates(t *testing.T) {
	a := Region{Base: 0x1000, Size: 0x1000}
	tests := []struct {
		name string
		b    Region
		want bool
	}{
		{"identical", Region{Base: 0x1000, Size: 0x1000}, true},
		{"contained", Region{Base: 0x1800, Size: 0x100}, true},
		{"partial low", Region{Base: 0x800, Size: 0x1000}, true},
		{"partial high", Region{Base: 0x1fff, Size: 0x10}, true},
		{"adjacent below", Region{Base: 0x0, Size: 0x1000}, false},
		{"adjacent above", Region{Base: 0x2000, Size: 0x1000}, false},
		{"disjoint", Region{Base: 0x10000, Size: 0x10}, false},
		{"zero size", Region{Base: 0x1800, Size: 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Overlaps(tt.b); got != tt.want {
				t.Errorf("Overlaps = %v, want %v", got, tt.want)
			}
			if got := tt.b.Overlaps(a); got != tt.want {
				t.Errorf("Overlaps not symmetric: %v, want %v", got, tt.want)
			}
		})
	}
	if !a.Contains(0x1000) || !a.Contains(0x1fff) || a.Contains(0x2000) || a.Contains(0xfff) {
		t.Error("Contains boundary behaviour wrong")
	}
}

func TestRegionEndOverflow(t *testing.T) {
	r := Region{Base: ^uint64(0) - 10, Size: 100}
	if _, ok := r.End(); ok {
		t.Error("overflowing region should report !ok")
	}
	r2 := Region{Base: 10, Size: 100}
	if end, ok := r2.End(); !ok || end != 110 {
		t.Errorf("End = %d,%v", end, ok)
	}
}

func TestPropertyOverlapSymmetricAndIrreflexiveOnDisjoint(t *testing.T) {
	prop := func(b1, s1, b2, s2 uint32) bool {
		r1 := Region{Base: uint64(b1), Size: uint64(s1)}
		r2 := Region{Base: uint64(b2), Size: uint64(s2)}
		if r1.Overlaps(r2) != r2.Overlaps(r1) {
			return false
		}
		// brute-force semantics on a sample of addresses
		if r1.Overlaps(r2) {
			// there must exist a shared address; check candidates
			candidates := []uint64{uint64(b1), uint64(b2), uint64(b1) + uint64(s1) - 1, uint64(b2) + uint64(s2) - 1}
			for _, a := range candidates {
				if r1.Contains(a) && r2.Contains(a) {
					return true
				}
			}
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

const collectDTS = `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};

	uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
	};

	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 { device_type = "cpu"; reg = <0x0>; };
		cpu@1 { device_type = "cpu"; reg = <0x1>; };
	};

	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		timer@f000 { reg = <0xf000 0x100>; };
	};
};
`

func TestCollectRegions(t *testing.T) {
	tree, err := dts.Parse("c.dts", collectDTS)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	regions, err := CollectRegions(tree)
	if err != nil {
		t.Fatalf("CollectRegions: %v", err)
	}
	// 2 memory banks + uart + timer = 4; CPUs skipped (#size-cells=0)
	if len(regions) != 4 {
		t.Fatalf("regions = %d (%v), want 4", len(regions), regions)
	}
	byPath := make(map[string][]Region)
	for _, r := range regions {
		byPath[r.Path] = append(byPath[r.Path], r)
	}
	mem := byPath["/memory@40000000"]
	if len(mem) != 2 || mem[0].Kind != KindMemory || mem[1].Base != 0x60000000 {
		t.Errorf("memory regions = %+v", mem)
	}
	timer := byPath["/soc/timer@f000"]
	if len(timer) != 1 || timer[0].Base != 0xf000 || timer[0].Size != 0x100 {
		t.Errorf("timer regions = %+v", timer)
	}
	if len(byPath["/cpus/cpu@0"]) != 0 {
		t.Error("cpu reg must not produce regions")
	}
}

func TestCollectRegionsArityError(t *testing.T) {
	src := `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	dev@0 { reg = <0x0 0x10 0x20>; };
};
`
	tree, _ := dts.Parse("bad.dts", src)
	_, err := CollectRegions(tree)
	if !errors.Is(err, ErrArity) {
		t.Errorf("err = %v, want ErrArity", err)
	}
}

func TestOverlapping(t *testing.T) {
	regions := []Region{
		{Base: 0x40000000, Size: 0x20000000, Path: "/memory", Kind: KindMemory, Index: 0},
		{Base: 0x60000000, Size: 0x20000000, Path: "/memory", Kind: KindMemory, Index: 1},
		{Base: 0x60000000, Size: 0x1000, Path: "/uart", Kind: KindDevice, Index: 0},
	}
	pairs := Overlapping(regions)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want exactly the memory/uart clash", pairs)
	}
	if pairs[0][0].Path != "/memory" || pairs[0][1].Path != "/uart" {
		t.Errorf("pair = %v", pairs[0])
	}
}

func TestOverlappingSameNodeBanks(t *testing.T) {
	// two banks of the same node that collide (the truncation scenario)
	regions := []Region{
		{Base: 0x0, Size: 0x40000000, Path: "/memory", Kind: KindMemory, Index: 0},
		{Base: 0x0, Size: 0x20000000, Path: "/memory", Kind: KindMemory, Index: 1},
	}
	pairs := Overlapping(regions)
	if len(pairs) != 1 {
		t.Fatalf("same-node banks must be checked; pairs = %v", pairs)
	}
}

func TestBitWidth(t *testing.T) {
	tests := []struct{ cells, want int }{{1, 32}, {2, 64}, {3, 64}}
	for _, tt := range tests {
		if got := BitWidth(tt.cells); got != tt.want {
			t.Errorf("BitWidth(%d) = %d, want %d", tt.cells, got, tt.want)
		}
	}
}

func TestParseRanges(t *testing.T) {
	// child 1 cell, parent 2 cells, size 1 cell: stride 4
	cells := []uint32{0x0, 0x0, 0xe0000000, 0x10000000}
	entries, err := ParseRanges(cells, 1, 2, 1)
	if err != nil {
		t.Fatalf("ParseRanges: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	e := entries[0]
	if e.ChildBase != 0 || e.ParentBase != 0xe0000000 || e.Size != 0x10000000 {
		t.Errorf("entry = %+v", e)
	}

	if _, err := ParseRanges([]uint32{1, 2, 3, 4}, 1, 1, 1); !errors.Is(err, ErrArity) {
		t.Errorf("arity error not reported: %v", err)
	}
	if _, err := ParseRanges(cells, 3, 1, 1); !errors.Is(err, ErrTooWide) {
		t.Errorf("width error not reported: %v", err)
	}
}

func TestTranslate(t *testing.T) {
	ranges := []RangeEntry{
		{ChildBase: 0x0, ParentBase: 0xe0000000, Size: 0x10000000},
		{ChildBase: 0x80000000, ParentBase: 0x40000000, Size: 0x1000},
	}
	tests := []struct {
		addr, size uint64
		want       uint64
		ok         bool
	}{
		{0x0, 0x100, 0xe0000000, true},
		{0x1000, 0x100, 0xe0001000, true},
		{0xFFFFF00, 0x100, 0xeFFFFF00, true},
		{0xFFFFF01, 0x100, 0, false}, // crosses the window end
		{0x80000000, 0x1000, 0x40000000, true},
		{0x20000000, 0x100, 0, false}, // uncovered
	}
	for _, tt := range tests {
		got, ok := Translate(ranges, tt.addr, tt.size)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("Translate(0x%x, 0x%x) = 0x%x,%v; want 0x%x,%v",
				tt.addr, tt.size, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCollectRegionsWithRangesTranslation(t *testing.T) {
	src := `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};

	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		ranges = <0x0 0x0 0xe0000000 0x10000000>;

		uart@1000 {
			compatible = "ns16550a";
			reg = <0x1000 0x100>;
		};
	};
};
`
	tree, err := dts.Parse("ranges.dts", src)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := CollectRegions(tree)
	if err != nil {
		t.Fatalf("CollectRegions: %v", err)
	}
	var uart *Region
	for i := range regions {
		if regions[i].Path == "/soc/uart@1000" {
			uart = &regions[i]
		}
	}
	if uart == nil {
		t.Fatal("uart region missing")
	}
	if uart.Base != 0xe0001000 {
		t.Errorf("uart base = %#x, want 0xe0001000 (translated)", uart.Base)
	}
}

func TestCollectRegionsUncoveredRange(t *testing.T) {
	src := `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		ranges = <0x0 0x0 0xe0000000 0x1000>;
		uart@100000 {
			reg = <0x100000 0x100>;
		};
	};
};
`
	tree, _ := dts.Parse("bad.dts", src)
	_, err := CollectRegions(tree)
	if err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Errorf("err = %v, want uncovered-range error", err)
	}
}

func TestCollectRegionsEmptyRangesIsIdentity(t *testing.T) {
	src := `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	soc {
		#address-cells = <1>;
		#size-cells = <1>;
		ranges;
		dev@5000 { reg = <0x5000 0x100>; };
	};
};
`
	tree, _ := dts.Parse("id.dts", src)
	regions, err := CollectRegions(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Base != 0x5000 {
		t.Errorf("regions = %v", regions)
	}
}

func TestCollectRegionsNestedRanges(t *testing.T) {
	// two levels of translation: dev at 0x10 -> mid bus +0x1000 -> root +0xe0000000
	src := `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	outer {
		#address-cells = <1>;
		#size-cells = <1>;
		ranges = <0x0 0xe0000000 0x100000>;
		inner {
			#address-cells = <1>;
			#size-cells = <1>;
			ranges = <0x0 0x1000 0x1000>;
			dev@10 { reg = <0x10 0x8>; };
		};
	};
};
`
	tree, _ := dts.Parse("nested.dts", src)
	regions, err := CollectRegions(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %v", regions)
	}
	if got := regions[0].Base; got != 0xe0001010 {
		t.Errorf("base = %#x, want 0xe0001010", got)
	}
}
