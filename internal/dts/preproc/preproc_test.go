package preproc

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llhsc/internal/dts"
)

// mustSource preprocesses src and checks its origins against the
// per-line oracle (checkOrigins), so every input here checks them.
func mustSource(t *testing.T, file, src string, opts Options) *Result {
	t.Helper()
	res, err := Source(file, src, opts)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	checkOrigins(t, res, file, src, opts)
	return res
}

// checkOrigins fails unless res, preprocessed from src, has the text of
// LineOrigins' run and gives every output line the origin in its
// per-line table, and no origin to the lines just outside the text.
func checkOrigins(t *testing.T, res *Result, file, src string, opts Options) {
	t.Helper()
	oracle, lines, err := LineOrigins(file, src, opts)
	if err != nil {
		t.Fatalf("LineOrigins: %v", err)
	}
	if oracle.Text != res.Text {
		t.Fatalf("LineOrigins text differs from Source's:\n%s\nvs\n%s", oracle.Text, res.Text)
	}
	if n := strings.Count(res.Text, "\n"); n != len(lines) {
		t.Fatalf("%d output lines, %d per-line origins", n, len(lines))
	}
	for i, want := range lines {
		if f, l := res.Origin(i + 1); f != want.File || l != want.Line {
			t.Errorf("%s: output line %d origin = %s:%d, per-line oracle %s:%d", file, i+1, f, l, want.File, want.Line)
		}
	}
	for _, out := range []int{0, len(lines) + 1} {
		if f, l := res.Origin(out); f != "" || l != 0 {
			t.Errorf("%s: out-of-range line %d has origin %s:%d", file, out, f, l)
		}
	}
}

func TestObjectMacroExpansion(t *testing.T) {
	src := "#define SPEED 115200\n/ { current-speed = <SPEED>; };\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "<115200>") {
		t.Errorf("output:\n%s", res.Text)
	}
	if strings.Contains(res.Text, "define") {
		t.Error("directive leaked into output")
	}
}

func TestFunctionMacroExpansion(t *testing.T) {
	src := "#define PIN(bank, n) ((bank) * 32 + (n))\n/ { gpios = <PIN(2, 7)>; };\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "<((2) * 32 + (7))>") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestNestedMacros(t *testing.T) {
	src := strings.Join([]string{
		"#define BASE 0x1000",
		"#define OFF(x) (BASE + (x))",
		"/ { reg = <OFF(4) 0x100>; };",
	}, "\n")
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "<(0x1000 + (4)) 0x100>") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestSelfReferentialMacroTerminates(t *testing.T) {
	src := "#define A A\n#define B C B\n/ { x = A; y = B; };\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "x = A") || !strings.Contains(res.Text, "y = C B") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestUnknownHashLinesPassThrough(t *testing.T) {
	// The assembler-with-cpp property that makes DTS+cpp possible at
	// all: #address-cells is not a directive.
	src := "/ {\n\t#address-cells = <1>;\n\t#size-cells = <0>;\n};\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "#address-cells = <1>;") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestPassthroughLinesStillExpand(t *testing.T) {
	src := "#define N 3\n/ { #size-cells = <N>; };\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "#size-cells = <3>;") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestConditionals(t *testing.T) {
	src := strings.Join([]string{
		"#define WANT_UART",
		"#ifdef WANT_UART",
		"uart-present;",
		"#else",
		"uart-absent;",
		"#endif",
		"#ifndef WANT_UART",
		"inverted-wrong;",
		"#else",
		"inverted-right;",
		"#endif",
		"#ifdef UNDEFINED",
		"#ifdef ALSO_UNDEFINED",
		"nested-dead;",
		"#endif",
		"dead;",
		"#endif",
	}, "\n")
	res := mustSource(t, "a.dts", src, Options{})
	for _, want := range []string{"uart-present;", "inverted-right;"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("missing %q in:\n%s", want, res.Text)
		}
	}
	for _, bad := range []string{"uart-absent", "inverted-wrong", "nested-dead", "dead;"} {
		if strings.Contains(res.Text, bad) {
			t.Errorf("dead branch %q leaked into:\n%s", bad, res.Text)
		}
	}
}

func TestCommandLineDefines(t *testing.T) {
	src := "#ifdef EXTRA\nextra;\n#endif\n/ { v = <VAL>; };\n"
	res := mustSource(t, "a.dts", src, Options{Defines: map[string]string{"EXTRA": "", "VAL": "42"}})
	if !strings.Contains(res.Text, "extra;") || !strings.Contains(res.Text, "<42>") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestUndef(t *testing.T) {
	src := "#define X 1\n#undef X\n#ifdef X\nstill;\n#endif\nv = X;\n"
	res := mustSource(t, "a.dts", src, Options{})
	if strings.Contains(res.Text, "still;") || !strings.Contains(res.Text, "v = X;") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestIncludeSearchPaths(t *testing.T) {
	fs := MapFS{
		"src/board.dts":               "#include \"local.dtsi\"\n#include <dt-bindings/gpio/gpio.h>\nboard;\n",
		"src/local.dtsi":              "local;\n",
		"inc/dt-bindings/gpio/gpio.h": "#define GPIO_ACTIVE_HIGH 0\n",
	}
	opts := Options{FS: fs, IncludePaths: []string{"inc"}}
	res, err := File("src/board.dts", opts)
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	checkOrigins(t, res, "src/board.dts", fs["src/board.dts"], opts)
	if !strings.Contains(res.Text, "local;") || !strings.Contains(res.Text, "board;") {
		t.Errorf("output:\n%s", res.Text)
	}
	// The bindings header defined a macro usable afterwards.
	if strings.Contains(res.Text, "GPIO_ACTIVE_HIGH") {
		t.Error("macro-only header should contribute no text")
	}
}

func TestIncludeNotFound(t *testing.T) {
	_, err := Source("a.dts", "#include <missing.h>\n", Options{FS: MapFS{}})
	var pe *dts.ParseError
	if !errors.As(err, &pe) || pe.File != "a.dts" || pe.Line != 1 {
		t.Fatalf("err = %v, want ParseError at a.dts:1", err)
	}
}

func TestIncludeCycle(t *testing.T) {
	fs := MapFS{
		"a.h": "#include \"b.h\"\n",
		"b.h": "#include \"a.h\"\n",
	}
	_, err := Source("top.dts", "#include \"a.h\"\n", Options{FS: fs})
	if err == nil {
		t.Fatal("expected cycle error")
	}
	if !errors.Is(err, dts.ErrTooDeep) {
		t.Errorf("cycle should wrap ErrTooDeep, got %v", err)
	}
}

func TestIncludeDepthGuard(t *testing.T) {
	fs := MapFS{}
	// Distinct files nested beyond the depth limit (no cycle).
	fs["f0.h"] = "x;\n"
	for i := 1; i < 40; i++ {
		fs[name(i)] = "#include \"" + name(i-1) + "\"\n"
	}
	_, err := Source("top.dts", "#include \""+name(39)+"\"\n", Options{FS: fs, MaxDepth: 8})
	if !errors.Is(err, dts.ErrTooDeep) {
		t.Errorf("err = %v, want ErrTooDeep", err)
	}
}

func name(i int) string { return "f" + string(rune('0'+i/10)) + string(rune('0'+i%10)) + ".h" }

func TestMaxBytesGuard(t *testing.T) {
	fs := MapFS{"big.h": strings.Repeat("x;\n", 1000)}
	_, err := Source("a.dts", "#include \"big.h\"\n", Options{FS: fs, MaxBytes: 100})
	if !errors.Is(err, dts.ErrSourceTooLarge) {
		t.Errorf("err = %v, want ErrSourceTooLarge", err)
	}
}

func TestMacroExpansionBudget(t *testing.T) {
	// Exponential growth: each level doubles. The per-line budget must
	// stop it with a ParseError, not OOM.
	var b strings.Builder
	b.WriteString("#define A0 xx\n")
	for i := 1; i <= 30; i++ {
		prev := string(rune('0' + (i-1)/10)) // keep names simple: A0..A30 via two digits
		_ = prev
	}
	src := "#define A0 xx\n" +
		"#define A1 A0 A0\n#define A2 A1 A1\n#define A3 A2 A2\n#define A4 A3 A3\n" +
		"#define A5 A4 A4\n#define A6 A5 A5\n#define A7 A6 A6\n#define A8 A7 A7\n" +
		"#define A9 A8 A8\n#define B1 A9 A9\n#define B2 B1 B1\n#define B3 B2 B2\n" +
		"#define B4 B3 B3\n#define B5 B4 B4\n#define B6 B5 B5\n#define B7 B6 B6\n" +
		"v = B7;\n"
	_, err := Source("a.dts", src, Options{MaxExpand: 1 << 16})
	var pe *dts.ParseError
	if !errors.As(err, &pe) || !errors.Is(err, dts.ErrSourceTooLarge) {
		t.Errorf("err = %v, want ParseError wrapping ErrSourceTooLarge", err)
	}
}

func TestUnterminatedIfdef(t *testing.T) {
	_, err := Source("a.dts", "#ifdef X\nnever closed\n", Options{})
	var pe *dts.ParseError
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("err = %v, want ParseError at line 1 (the #ifdef)", err)
	}
	if !strings.Contains(pe.Msg, "unterminated") {
		t.Errorf("msg = %q", pe.Msg)
	}
}

func TestDirectiveErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"#endif\n", "#endif without"},
		{"#else\n", "#else without"},
		{"#ifdef A\n#else\n#else\n#endif\n", "#else after #else"},
		{"#if 1\n#endif\n", "not supported"},
		{"#ifdef A\n#elif B\n#endif\n", "not supported"},
		{"#elif B\n", "#elif without"},
		{"#ifdef A\n#else\n#elif B\n#endif\n", "#elif after #else"},
		{"#ifdef A\n#if B\n", "unterminated"},
		{"#error custom message\n", "custom message"},
		{"#include bare\n", "expects"},
		{"#define 9bad 1\n", "macro name"},
	} {
		_, err := Source("a.dts", tc.src, Options{})
		var pe *dts.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: err = %v, want ParseError", tc.src, err)
			continue
		}
		if !strings.Contains(pe.Msg, tc.want) {
			t.Errorf("%q: msg = %q, want substring %q", tc.src, pe.Msg, tc.want)
		}
	}
}

func TestCommentsAndStringsUntouched(t *testing.T) {
	src := strings.Join([]string{
		"#define X 1",
		"/* X in a block comment",
		"still X here */",
		"// X in a line comment",
		"s = \"X marks the spot\";",
		"v = X;",
	}, "\n")
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "X in a block comment") ||
		!strings.Contains(res.Text, "still X here") ||
		!strings.Contains(res.Text, "// X in a line comment") ||
		!strings.Contains(res.Text, `"X marks the spot"`) {
		t.Errorf("comments or strings were expanded:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "v = 1;") {
		t.Errorf("code outside comments must expand:\n%s", res.Text)
	}
}

func TestDirectiveInsideBlockCommentIgnored(t *testing.T) {
	src := "/*\n#define X 1\n*/\nv = X;\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "v = X;") {
		t.Errorf("commented-out #define took effect:\n%s", res.Text)
	}
}

func TestBackslashContinuationInDefine(t *testing.T) {
	src := "#define LONG \\\n\t1 + \\\n\t2\nv = <LONG>;\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "1 + 2") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestTokenPasting(t *testing.T) {
	src := "#define GLUE(a, b) a ## b\nv = GLUE(0x, ff);\n"
	res := mustSource(t, "a.dts", src, Options{})
	if !strings.Contains(res.Text, "v = 0xff;") {
		t.Errorf("output:\n%s", res.Text)
	}
}

func TestOriginTracking(t *testing.T) {
	fs := MapFS{"inc.dtsi": "from-include;\nalso-include;\n"}
	src := "#define X 1\ntop-one;\n#include \"inc.dtsi\"\ntop-two;\n"
	res := mustSource(t, "top.dts", src, Options{FS: fs})
	wantLines := []string{"top-one;", "from-include;", "also-include;", "top-two;"}
	got := strings.Split(strings.TrimRight(res.Text, "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("output lines = %q", got)
	}
	type loc struct {
		file string
		line int
	}
	wantOrigins := []loc{{"top.dts", 2}, {"inc.dtsi", 1}, {"inc.dtsi", 2}, {"top.dts", 4}}
	for i, w := range wantOrigins {
		f, l := res.Origin(i + 1)
		if f != w.file || l != w.line {
			t.Errorf("line %d origin = %s:%d, want %s:%d", i+1, f, l, w.file, w.line)
		}
	}
	if f, l := res.Origin(0); f != "" || l != 0 {
		t.Error("out-of-range origin should be empty")
	}
}

func TestParseRemapsErrorPosition(t *testing.T) {
	// The syntax error is on line 4 of the original file; the combined
	// text has different numbering because the #define line vanishes.
	fs := MapFS{"ok.dtsi": "/ { fine; };\n"}
	src := "#define X 1\n/dts-v1/;\n#include \"ok.dtsi\"\n/ { broken = ; };\n"
	mustSource(t, "top.dts", src, Options{FS: fs})
	_, err := Parse("top.dts", src, Options{FS: fs})
	var pe *dts.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if pe.File != "top.dts" || pe.Line != 4 {
		t.Errorf("error at %s:%d, want top.dts:4", pe.File, pe.Line)
	}
}

func TestParseRemapsTreeOrigins(t *testing.T) {
	fs := MapFS{"soc.dtsi": "/ {\n\tsoc {\n\t\tnested;\n\t};\n};\n"}
	src := "/dts-v1/;\n#include \"soc.dtsi\"\n/ {\n\ttop-prop;\n};\n"
	mustSource(t, "top.dts", src, Options{FS: fs})
	tree, err := Parse("top.dts", src, Options{FS: fs})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	soc := tree.Lookup("/soc")
	if soc.Origin.File != "soc.dtsi" || soc.Origin.Line != 2 {
		t.Errorf("soc origin = %v, want soc.dtsi:2", soc.Origin)
	}
	top := tree.Root.Property("top-prop")
	if top.Origin.File != "top.dts" || top.Origin.Line != 4 {
		t.Errorf("top-prop origin = %v, want top.dts:4", top.Origin)
	}
}

func TestKernelStyleEndToEnd(t *testing.T) {
	fs := MapFS{
		"dt-bindings/interrupt-controller/irq.h": strings.Join([]string{
			"#ifndef _DT_BINDINGS_INTERRUPT_CONTROLLER_IRQ_H",
			"#define _DT_BINDINGS_INTERRUPT_CONTROLLER_IRQ_H",
			"#define IRQ_TYPE_EDGE_RISING 1",
			"#define IRQ_TYPE_LEVEL_HIGH 4",
			"#endif",
		}, "\n"),
	}
	src := strings.Join([]string{
		"/dts-v1/;",
		"#include <dt-bindings/interrupt-controller/irq.h>",
		"#include <dt-bindings/interrupt-controller/irq.h>", // guard makes this a no-op
		"/ {",
		"\tdev {",
		"\t\tinterrupts = <5 IRQ_TYPE_LEVEL_HIGH>;",
		"\t};",
		"};",
	}, "\n")
	mustSource(t, "board.dts", src, Options{FS: fs, IncludePaths: []string{"."}})
	tree, err := Parse("board.dts", src, Options{FS: fs, IncludePaths: []string{"."}})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cells := tree.Lookup("/dev").Property("interrupts").Value.U32s()
	if len(cells) != 2 || cells[0] != 5 || cells[1] != 4 {
		t.Errorf("interrupts = %v, want [5 4]", cells)
	}
}

// TestSkippedIfNests pins cpp's nesting of conditionals in a skipped
// group: an #if there opens a frame without evaluating its expression,
// so its #endif closes that frame and not the enclosing one, and an
// #elif after a taken branch only ends it.
func TestSkippedIfNests(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"dead #if", "#ifdef FOO\n#if BAR\n#endif\n#endif\nafter;\n", "after;\n"},
		{"dead #if with text after it",
			"#ifdef FOO\n#if BAR\ninner;\n#endif\nouter;\n#endif\nafter;\n", "after;\n"},
		{"#if/#else in a dead #else",
			"#define A\n#ifdef A\nthen;\n#else\n#if B\nif-branch;\n#else\nelse-branch;\n#endif\ndead;\n#endif\nafter;\n",
			"then;\nafter;\n"},
		{"#elif after a taken branch", "#define A\n#ifdef A\nthen;\n#elif B\nelif;\n#else\nelse;\n#endif\n", "then;\n"},
		{"#elif in a dead group", "#ifdef FOO\n#ifndef FOO\nx;\n#elif B\ny;\n#endif\n#endif\nafter;\n", "after;\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustSource(t, "a.dts", tc.src, Options{}).Text; got != tc.want {
				t.Errorf("output %q, want %q", got, tc.want)
			}
		})
	}
}

// corpusOptions reads the kernel-style corpus the way the corpus gate
// does: its root and include/ are the -I directories.
func corpusOptions(t *testing.T) (string, Options) {
	const dir = "../../../testdata/corpus"
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	return dir, Options{IncludePaths: []string{dir, filepath.Join(dir, "include")}}
}

// TestCorpusOriginsMatchPerLineOracle checks Origin against the per-line
// oracle on every corpus file, with and without the -D that flips
// board-beta's #ifdef: include boundaries, a header included twice,
// include guards and skipped regions, multi-line block comments.
// Backslash continuations are covered by the inputs above; the corpus
// has none.
func TestCorpusOriginsMatchPerLineOracle(t *testing.T) {
	dir, opts := corpusOptions(t)
	files, err := filepath.Glob(filepath.Join(dir, "*.dts*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, defines := range []map[string]string{nil, {"HAS_SECOND_UART": ""}} {
			opts.Defines = defines
			mustSource(t, f, string(src), opts)
		}
	}
}

// TestCorpusBoardAllocs pins what preprocessing and parsing one corpus
// board costs, with its whole include tree served from a MapFS as the
// service serves a request's includes. The output is written into one
// buffer with run-length origins, includes are read without copies, and
// the parser moves fresh blocks into its tree, and resolving a label
// walks the tree without building paths; a per-line copy, a per-line
// builder, a cloned block or a path per node shows up as a higher count.
func TestCorpusBoardAllocs(t *testing.T) {
	dir, _ := corpusOptions(t)
	fs := MapFS{}
	for _, name := range []string{"board-alpha.dts", "soc.dtsi", "cpus.dtsi", "skeleton.dtsi",
		"dt-bindings/gpio/gpio.h", "dt-bindings/interrupt-controller/irq.h", "dt-bindings/clock/demo-clk.h"} {
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, "dt-bindings/") {
			path = filepath.Join(dir, "include", name)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fs[name] = string(src)
	}
	opts := Options{FS: fs, IncludePaths: []string{"."}}
	parse := func() {
		if _, err := Parse("board-alpha.dts", fs["board-alpha.dts"], opts); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 383
	if allocs := testing.AllocsPerRun(20, parse); allocs > budget {
		t.Errorf("preprocessing and parsing board-alpha allocates %.0f times, budget %d", allocs, budget)
	}
}
