package constraints

import (
	"testing"

	"llhsc/internal/addr"
	"llhsc/internal/conform"
)

// TestDecideConcretePairMatchesBlast pins the word tier's core claim on
// the conform generator's near-overlapping geometry: for fully concrete
// pairs its verdict AND witness equal the bit-blasted oracle's
// (oraclePair) byte for byte, including regions whose 64-bit Base lies
// beyond the checker width.
func TestDecideConcretePairMatchesBlast(t *testing.T) {
	for _, width := range []int{12, 16, 32} {
		for i, p := range conform.NearRegionPairs(int64(width), 60, width) {
			a, b := p[0], p[1]
			gotOverlap, gotW := DecideConcretePair(a, b, width)
			wantOverlap, wantW := oraclePair(t, a, b, width)
			if gotOverlap != wantOverlap || (gotOverlap && gotW != wantW) {
				t.Fatalf("width %d pair %d (%+v, %+v): word tier (%v, %#x) != blast (%v, %#x)",
					width, i, a, b, gotOverlap, gotW, wantOverlap, wantW)
			}
		}
	}
}

// FuzzDecideConcretePair is the go-fuzz face of the differential
// suite: arbitrary bases and sizes (including the truncation and
// top-of-space corners) must never make the word tier disagree with
// the bit-blasted oracle.
func FuzzDecideConcretePair(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x100), uint64(0x10f0), uint64(0x20), 16)
	f.Add(^uint64(0)-16, uint64(64), uint64(0), uint64(1), 32)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), 12)
	f.Fuzz(func(t *testing.T, baseA, sizeA, baseB, sizeB uint64, w int) {
		width := 12 + int(uint(w)%21) // 12..32 keeps minimization cheap
		a := addr.Region{Base: baseA, Size: sizeA % (1 << 10), Path: "/a"}
		b := addr.Region{Base: baseB, Size: sizeB % (1 << 10), Path: "/b"}
		gotOverlap, gotW := DecideConcretePair(a, b, width)
		wantOverlap, wantW := oraclePair(t, a, b, width)
		if gotOverlap != wantOverlap || (gotOverlap && gotW != wantW) {
			t.Fatalf("word (%v, %#x) != blast (%v, %#x) for A=%+v B=%+v width=%d",
				gotOverlap, gotW, wantOverlap, wantW, a, b, width)
		}
	})
}
