package conform

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/dtb"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
)

// maxFuzzInput bounds inputs so a single mutated case cannot stall the
// fuzzing loop; the parser's own guards are exercised well below this.
const maxFuzzInput = 256 << 10

// coreForDeltaFuzz is the fixed core tree fuzzer-generated deltas are
// applied against.
const coreForDeltaFuzz = `/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	compatible = "conform,core";

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000>;
	};

	uart0: uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
	};
};
`

func addFileSeeds(f *testing.F, pattern string) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", pattern))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatalf("no seed corpus matches %s", pattern)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
}

// FuzzParse asserts the error contract on arbitrary input: dts.Parse
// never panics and every rejection is a *dts.ParseError.
func FuzzParse(f *testing.F) {
	addFileSeeds(f, "seed_*.dts")
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(GenerateCase(seed).Source)
	}
	f.Add("$$$")
	f.Add(`/ { a = <(1/0)>; };`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip()
		}
		if _, err := ParseOracle("fuzz.dts", src); err != nil {
			t.Fatal(err)
		}
	})
}

// preprocFuzzOptions is the fixed environment FuzzPreproc (and the
// seed-corpus test) runs under: a small in-memory include universe
// (with a self-include to make cycles reachable) and tight budgets so
// mutated inputs that probe the guards fail fast instead of stalling
// the loop.
func preprocFuzzOptions() preproc.Options {
	return preproc.Options{
		IncludePaths: []string{"."},
		FS: preproc.MapFS{
			"inc.h":  "#define FROM_INC 1\n",
			"loop.h": "#include \"loop.h\"\n",
		},
		MaxDepth:  8,
		MaxBytes:  1 << 20,
		MaxExpand: 1 << 16,
	}
}

// FuzzPreproc asserts the preprocessor's error contract on arbitrary
// input: preproc.Source never panics and never hangs — macro recursion,
// unterminated conditionals, include cycles and expansion blow-ups must
// all come back as *dts.ParseError (the guards wrap dts.ErrTooDeep or
// dts.ErrSourceTooLarge). An accepted output must give every line the
// origin that preproc.LineOrigins, the per-line oracle, gives it.
func FuzzPreproc(f *testing.F) {
	addFileSeeds(f, "seed_pp_*.pp")
	f.Add("#define A(x) ((x) + 1)\nv = <A(A(2))>;\n")
	f.Add("#ifdef X\n#else\nok;\n#endif\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip()
		}
		res, err := preproc.Source("fuzz.dts", src, preprocFuzzOptions())
		if err != nil {
			var pe *dts.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("preproc rejection is not a *dts.ParseError: %T: %v", err, err)
			}
			return
		}
		_, lines, err := preproc.LineOrigins("fuzz.dts", src, preprocFuzzOptions())
		if err != nil {
			t.Fatalf("the per-line oracle rejects what Source accepts: %v", err)
		}
		// Text is newline-terminated when non-empty, so the "\n" count
		// is exactly the number of output lines.
		if n := strings.Count(res.Text, "\n"); n != len(lines) {
			t.Fatalf("%d output lines, %d per-line origins", n, len(lines))
		}
		for i, want := range lines {
			if file, line := res.Origin(i + 1); file != want.File || line != want.Line || line <= 0 {
				t.Fatalf("output line %d origin = %s:%d, per-line oracle %s:%d", i+1, file, line, want.File, want.Line)
			}
		}
		if file, _ := res.Origin(len(lines) + 1); file != "" {
			t.Fatalf("line %d past the output has origin %s", len(lines)+1, file)
		}
	})
}

// FuzzRoundTrip runs the differential oracles on every input the
// parser accepts: print/parse structural identity and, when phandle
// references resolve, the dtb fixed point.
func FuzzRoundTrip(f *testing.F) {
	addFileSeeds(f, "seed_*.dts")
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(GenerateCase(seed).Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip()
		}
		tree, err := ParseOracle("fuzz.dts", src)
		if err != nil {
			t.Fatal(err)
		}
		if tree == nil {
			return // legitimately rejected
		}
		if err := CheckRoundTrip(tree); err != nil {
			t.Fatal(err)
		}
		// Accepted sources may reference undefined labels (resolution
		// is late); only a successful encode owes us the fixed point.
		if blob, err := dtb.Encode(tree); err == nil {
			if err := CheckDTBFixpoint(blob); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzDTB feeds arbitrary blobs to the binary decoder: Decode must
// never panic, and any tree it accepts must reach an encode/decode
// fixed point after one normalizing encode.
func FuzzDTB(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		c := GenerateCase(seed)
		tree, err := dts.Parse("seed.dts", c.Source)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := dtb.Encode(tree)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0xd0, 0x0d, 0xfe, 0xed})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > maxFuzzInput {
			t.Skip()
		}
		tree, err := dtb.Decode(blob)
		if err != nil {
			return // rejection is fine; panics are caught by the fuzzer
		}
		// The first encode normalizes (deduplicated properties, dropped
		// zero memreserves); from there the codec must be a fixed point.
		norm, err := dtb.Encode(tree)
		if err != nil {
			t.Fatalf("decoded tree does not re-encode: %v", err)
		}
		if err := CheckDTBFixpoint(norm); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDelta parses arbitrary delta-module files and applies whatever
// parses against a fixed core: no panics anywhere, and successful
// applications must satisfy the delta-commute oracle.
func FuzzDelta(f *testing.F) {
	addFileSeeds(f, "seed_*.deltas")
	core, err := dts.Parse("core.dts", coreForDeltaFuzz)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		g := NewGenerator(seed)
		tree, err := dts.Parse("seed.dts", g.Source())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(g.DeltaSource(tree))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip()
		}
		set, err := delta.Parse("fuzz.deltas", src)
		if err != nil {
			return
		}
		for _, cfg := range []featmodel.Configuration{
			{"fa": true, "fb": true, "fc": true},
			{"fa": true, "fb": false, "fc": true},
			{},
		} {
			product, _, err := set.Apply(core, cfg)
			if err != nil {
				continue // typed apply/order errors are legitimate
			}
			printed := product.Print()
			re, err := dts.Parse("product.dts", printed)
			if err != nil {
				t.Fatalf("delta product does not reparse: %v\nprinted:\n%s", err, printed)
			}
			if err := TreesStructurallyEqual(product, re); err != nil {
				t.Fatalf("delta product round trip: %v\nprinted:\n%s", err, printed)
			}
		}
	})
}
