package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"llhsc/internal/core"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/service"
)

const testdata = "../../testdata"

func TestCheckRunningExampleFromFiles(t *testing.T) {
	err := run([]string{
		"check",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-vm", "memory,cpu@0,uart0,uart1,veth0",
		"-vm", "memory,cpu@1,uart0,uart1,veth1",
	})
	if err != nil {
		t.Fatalf("check failed: %v", err)
	}
}

func TestCheckRejectsSharedCPU(t *testing.T) {
	err := run([]string{
		"check",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-vm", "memory,cpu@0,uart0,veth0",
		"-vm", "memory,cpu@0,uart1",
	})
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("err = %v, want violations", err)
	}
}

func TestCheckRejectsUnknownFeature(t *testing.T) {
	err := run([]string{
		"check",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-vm", "memory,cpu@0,uart0,veth0",
		"-vm", "memory,cpu@1,uart1,veth1,cpu@7",
	})
	if err == nil || !strings.Contains(err.Error(), `vm 2 selects unknown feature "cpu@7"`) {
		t.Fatalf("err = %v, want vm 2's unknown feature cpu@7 rejected", err)
	}
}

// TestCheckParseErrorsMatchService runs llhsc check on a malformed
// delta file and a malformed feature-model file, each named as /check
// names its input, and requires the error /check answers for the same
// text: both come from core.ParseFrontEnd, with its "deltas: " or
// "feature model: " prefix and the parser's position.
func TestCheckParseErrorsMatchService(t *testing.T) {
	deltas, err := os.ReadFile(filepath.Join(testdata, "customsbc.deltas"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := os.ReadFile(filepath.Join(testdata, "customsbc.fm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ file, deltas, model, prefix string }{
		{"deltas", string(deltas) + "\ndelta broken when {\n", string(model), "deltas: deltas:"},
		{"featuremodel", string(deltas), string(model) + "\nfeature {\n", "feature model: featuremodel:"},
	} {
		dir := t.TempDir()
		for name, text := range map[string]string{"deltas": c.deltas, "featuremodel": c.model} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cliErr := run([]string{
			"check",
			"-core", filepath.Join(testdata, "customsbc.dts"),
			"-deltas", filepath.Join(dir, "deltas"),
			"-fm", filepath.Join(dir, "featuremodel"),
			"-vm", "memory,cpu@0,uart0",
		})

		rec := httptest.NewRecorder()
		h := service.NewHandler(service.Options{})
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/example", nil))
		var req service.CheckRequest
		if err := json.Unmarshal(rec.Body.Bytes(), &req); err != nil {
			t.Fatal(err)
		}
		req.Deltas, req.FeatureModel = c.deltas, c.model
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
		var reply struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusUnprocessableEntity || !strings.HasPrefix(reply.Error, c.prefix) {
			t.Fatalf("malformed %s: /check answered %d %q, want 422 starting %q", c.file, rec.Code, reply.Error, c.prefix)
		}
		if cliErr == nil || cliErr.Error() != reply.Error {
			t.Errorf("malformed %s: llhsc check = %v, want /check's %q", c.file, cliErr, reply.Error)
		}
	}
}

func TestGenerateWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"generate",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-vm", "memory,cpu@0,uart0,uart1,veth0",
		"-vm", "memory,cpu@1,uart0,uart1,veth1",
		"-o", dir,
	})
	if err != nil {
		t.Fatalf("generate failed: %v", err)
	}
	for _, f := range []string{"vm1.dts", "vm2.dts", "platform.dts", "platform.c", "config.c", "qemu.sh"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", f)
		}
	}
	configC, _ := os.ReadFile(filepath.Join(dir, "config.c"))
	if !strings.Contains(string(configC), ".vmlist_size = 2") {
		t.Error("config.c lacks the VM list")
	}
}

func TestDemoSubcommand(t *testing.T) {
	if err := run([]string{"demo"}); err != nil {
		t.Fatalf("demo failed: %v", err)
	}
}

func TestInferFM(t *testing.T) {
	err := run([]string{"infer-fm", "-core", filepath.Join(testdata, "customsbc.dts")})
	if err != nil {
		t.Fatalf("infer-fm failed: %v", err)
	}
}

// TestParseCoreDTSPreprocesses: the core loader must run the cpp
// pipeline — resolving -I includes, honoring -D definitions — and map
// error positions back to the original files.
func TestParseCoreDTSPreprocesses(t *testing.T) {
	dir := t.TempDir()
	inc := filepath.Join(dir, "inc")
	if err := os.MkdirAll(inc, 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite := func(path, src string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(filepath.Join(inc, "board.h"), "#define UART_BASE 0x9000000\n")
	core := filepath.Join(dir, "core.dts")
	mustWrite(core, `/dts-v1/;
#include <board.h>
/ {
	uart0: uart@9000000 {
		compatible = "ns16550a";
		reg = <UART_BASE 0x1000>;
#ifdef WITH_EXTRA
		extra-prop;
#endif
	};
};
`)

	tree, err := parseCoreDTS(core, []string{inc}, map[string]string{"WITH_EXTRA": "1"})
	if err != nil {
		t.Fatalf("parseCoreDTS: %v", err)
	}
	uart := tree.Root.Child("uart@9000000")
	if uart == nil {
		t.Fatal("uart node missing")
	}
	if v, ok := uart.CellValue("reg"); !ok || v != 0x9000000 {
		t.Errorf("reg[0] = %#x, %v; want UART_BASE expanded to 0x9000000", v, ok)
	}
	if uart.Property("extra-prop") == nil {
		t.Error("-D WITH_EXTRA did not enable the #ifdef branch")
	}

	plain, err := parseCoreDTS(core, []string{inc}, nil)
	if err != nil {
		t.Fatalf("parseCoreDTS without defines: %v", err)
	}
	if plain.Root.Child("uart@9000000").Property("extra-prop") != nil {
		t.Error("#ifdef branch active without -D WITH_EXTRA")
	}

	// A syntax error inside an include must be blamed on the header.
	mustWrite(filepath.Join(inc, "bad.h"), "/ { broken = ; };\n")
	badCore := filepath.Join(dir, "bad.dts")
	mustWrite(badCore, "/dts-v1/;\n#include <bad.h>\n")
	if _, err := parseCoreDTS(badCore, []string{inc}, nil); err == nil {
		t.Fatal("expected error from broken include")
	} else if !strings.Contains(err.Error(), "bad.h") {
		t.Errorf("error not mapped to the include: %v", err)
	}
}

func TestDefineFlags(t *testing.T) {
	d := defineFlags{}
	if err := d.Set("PLAIN"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("PAIR=0x10"); err != nil {
		t.Fatal(err)
	}
	if d["PLAIN"] != "1" || d["PAIR"] != "0x10" {
		t.Errorf("defines = %v", d)
	}
	if err := d.Set("=oops"); err == nil {
		t.Error("empty macro name must be rejected")
	}
}

func TestUsageErrors(t *testing.T) {
	tests := [][]string{
		{},
		{"unknown-subcommand"},
		{"check"},
		{"check", "-core", "x.dts"},
		{"infer-fm"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCompleteConfigImpliesAncestors(t *testing.T) {
	fmSrc, err := os.ReadFile(filepath.Join(testdata, "customsbc.fm"))
	if err != nil {
		t.Fatal(err)
	}
	model := mustModel(t, string(fmSrc))
	cfg, err := model.Complete([]string{"veth0", " cpu@0", ""})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"veth0", "cpu@0", "vEthernet", "cpus", "CustomSBC"} {
		if !cfg[want] {
			t.Errorf("Complete missing %s: %v", want, cfg.Sorted())
		}
	}
}

func mustModel(t *testing.T, src string) *featmodel.Model {
	t.Helper()
	m, err := featmodel.ParseModel("test.fm", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProductsSubcommand(t *testing.T) {
	if err := run([]string{"products", "-fm", filepath.Join(testdata, "customsbc.fm")}); err != nil {
		t.Fatalf("products: %v", err)
	}
	if err := run([]string{"products"}); err == nil {
		t.Error("products without -fm should fail")
	}
}

func TestCheckWithYAMLSchemasDir(t *testing.T) {
	err := run([]string{
		"check",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-schemas", filepath.Join(testdata, "schemas"),
		"-vm", "memory,cpu@0,uart0,uart1,veth0",
		"-vm", "memory,cpu@1,uart0,uart1,veth1",
	})
	if err != nil {
		t.Fatalf("check with YAML schema dir failed: %v", err)
	}
}

func TestSchemasDirWithoutYAML(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"check",
		"-core", filepath.Join(testdata, "customsbc.dts"),
		"-deltas", filepath.Join(testdata, "customsbc.deltas"),
		"-fm", filepath.Join(testdata, "customsbc.fm"),
		"-schemas", dir,
		"-vm", "memory,cpu@0,uart0",
	})
	if err == nil || !strings.Contains(err.Error(), "no .yaml schemas") {
		t.Errorf("err = %v", err)
	}
}

// strictUARTSchema is testdata/schemas/ns16550a.yaml made strict: no
// property beyond those listed, and reg-shift fixed at 2.
const strictUARTSchema = `$id: ns16550a.yaml
select:
  node: uart
  compatible:
    - ns16550a
properties:
  compatible:
    type: string
  reg:
    type: cells
    reg-like: true
    minItems: 1
    maxItems: 4
  reg-shift:
    const: 2
additionalProperties: false
required:
  - compatible
  - reg
`

// TestCheckStrictSchemaFailsInBothModes: under a strict UART schema, a
// uart0 with an unlisted clock-frequency and reg-shift = <0> fails the
// check in both modes with the additional and const rules, and each
// lifted finding's witness selects uart0.
func TestCheckStrictSchemaFailsInBothModes(t *testing.T) {
	dir := t.TempDir()
	schemas := filepath.Join(dir, "schemas")
	if err := os.Mkdir(schemas, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.yaml", "memory.yaml", "veth.yaml"} {
		copyFile(t, filepath.Join(testdata, "schemas", name), filepath.Join(schemas, name))
	}
	if err := os.WriteFile(filepath.Join(schemas, "ns16550a.yaml"), []byte(strictUARTSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	copyFile(t, filepath.Join(testdata, "cpus.dtsi"), filepath.Join(dir, "cpus.dtsi"))
	board, err := os.ReadFile(filepath.Join(testdata, "customsbc.dts"))
	if err != nil {
		t.Fatal(err)
	}
	const uart0 = "reg = <0x0 0x20000000 0x0 0x1000>;"
	if !strings.Contains(string(board), uart0) {
		t.Fatalf("customsbc.dts has no %q", uart0)
	}
	strictBoard := strings.Replace(string(board), uart0,
		uart0+"\n\t\tclock-frequency = <1843200>;\n\t\treg-shift = <0>;", 1)
	if err := os.WriteFile(filepath.Join(dir, "board.dts"), []byte(strictBoard), 0o644); err != nil {
		t.Fatal(err)
	}

	rules := []string{
		"schema:ns16550a.yaml:additional:clock-frequency",
		"schema:ns16550a.yaml:const:reg-shift",
	}
	for _, mode := range []string{"enumerate", "lifted"} {
		t.Run(mode, func(t *testing.T) {
			var err error
			out := captureStdout(t, func() {
				err = run([]string{
					"check",
					"-core", filepath.Join(dir, "board.dts"),
					"-deltas", filepath.Join(testdata, "customsbc.deltas"),
					"-fm", filepath.Join(testdata, "customsbc.fm"),
					"-schemas", schemas,
					"-mode", mode,
					"-vm", "memory,cpu@0,uart0,veth0",
					"-vm", "memory,cpu@1,uart1",
				})
			})
			if err == nil || !strings.Contains(err.Error(), "violation") {
				t.Fatalf("err = %v, want violations\n%s", err, out)
			}
			if !strings.HasPrefix(out, "llhsc: FAIL") {
				t.Fatalf("report does not start with FAIL:\n%s", out)
			}
			for _, rule := range rules {
				var lines []string
				for _, line := range strings.Split(out, "\n") {
					if strings.Contains(line, "/uart@20000000 ") && strings.Contains(line, "["+rule+"]") {
						lines = append(lines, line)
					}
				}
				if len(lines) == 0 {
					t.Errorf("no /uart@20000000 finding for %s in:\n%s", rule, out)
				}
				if mode != "lifted" {
					continue
				}
				for _, line := range lines {
					_, witness, ok := strings.Cut(line, "(config [")
					if !strings.Contains(line, "lifted: [schema]") || !ok ||
						!slices.Contains(strings.Fields(strings.TrimSuffix(witness, "])")), "uart0") {
						t.Errorf("lifted finding without a witness selecting uart0: %s", line)
					}
				}
			}
		})
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-done
}

// TestTraceStatsLineShowsProducts prints the -trace output of a lifted
// check of the running example: the lifted span and the lifted stats
// line name the 12 valid products the guards ranged over, and the
// stats line no session.
func TestTraceStatsLineShowsProducts(t *testing.T) {
	p, err := core.RunningExample()
	if err != nil {
		t.Fatal(err)
	}
	p.Mode = core.ModeLifted
	root := obs.NewSpan("check")
	report, err := p.RunContext(obs.ContextWithSpan(t.Context(), root), core.Limits{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	printTrace(&b, root, report)
	want := "lifted       products=12 queries=0 pruned=0 word_decided=1 sessions=0 findings=0\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("trace output lacks %q:\n%s", want, b.String())
	}
	spanned := false
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "lifted" && slices.Contains(f, "products=12") && strings.HasSuffix(f[1], "ms") {
			spanned = true
		}
	}
	if !spanned {
		t.Errorf("no lifted span with products=12 in:\n%s", b.String())
	}
}
