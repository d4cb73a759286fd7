package dts

import (
	"errors"
	"strings"
	"testing"
)

// nestedSource builds a DTS with a node chain depth levels deep.
func nestedSource(depth int) string {
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

// TestParseDepthGuard pins the guard at 64 levels of node bodies, the
// root's counting as the first: a root with 63 nested nodes parses and
// one more level fails with ErrTooDeep.
func TestParseDepthGuard(t *testing.T) {
	if _, err := Parse("deep.dts", nestedSource(63)); err != nil {
		t.Fatalf("64 levels should parse: %v", err)
	}
	_, err := Parse("deep.dts", nestedSource(64))
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("65 levels: err = %v, want ErrTooDeep", err)
	}
	if _, err := Parse("deep.dts", nestedSource(200)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("201 levels: err = %v, want ErrTooDeep", err)
	}
}

func TestParseSourceSizeGuard(t *testing.T) {
	src := "/dts-v1/;\n/ { x = \"" + strings.Repeat("a", 100) + "\"; };\n"
	if _, err := Parse("big.dts", src); err != nil {
		t.Fatalf("unlimited parse failed: %v", err)
	}
	_, err := Parse("big.dts", src, WithMaxSourceBytes(50))
	if !errors.Is(err, ErrSourceTooLarge) {
		t.Fatalf("err = %v, want ErrSourceTooLarge", err)
	}
}

func TestParseSourceSizeGuardCountsIncludes(t *testing.T) {
	inc := MapIncluder{"part.dtsi": "/ { y = <1>; };\n" + strings.Repeat("// pad\n", 20)}
	src := "/dts-v1/;\n/include/ \"part.dtsi\"\n/ { x = <2>; };\n"
	if _, err := Parse("main.dts", src, WithIncluder(inc)); err != nil {
		t.Fatalf("unlimited parse failed: %v", err)
	}
	_, err := Parse("main.dts", src, WithIncluder(inc), WithMaxSourceBytes(len(src)+10))
	if !errors.Is(err, ErrSourceTooLarge) {
		t.Fatalf("err = %v, want ErrSourceTooLarge (include bytes must count)", err)
	}
}

func TestParseFragmentDepthGuard(t *testing.T) {
	var b strings.Builder
	b.WriteString("{\n")
	for i := 0; i < 80; i++ {
		b.WriteString("n {\n")
	}
	for i := 0; i < 80; i++ {
		b.WriteString("};\n")
	}
	b.WriteString("}")
	_, err := ParseFragment("frag", "x", b.String())
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
}
