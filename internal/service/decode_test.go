package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"llhsc/internal/bench"
	"llhsc/internal/featmodel"
)

// decodeBoth decodes body as a T with this package's decoder and with
// json.Unmarshal, the oracle, and fails unless both reject it or both
// accept it with equal results. The decoder the service used before,
// json.Decoder, must agree as well, except that it ignored whatever
// followed the first value. It reports whether the body decoded.
func decodeBoth[T any, PT interface {
	*T
	requestBody
}](t testing.TB, body []byte) bool {
	t.Helper()
	var got, want, old T
	errGot := new(reqDecoder).decode(body, PT(&got))
	errWant := json.Unmarshal(body, &want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%T of %q: decoder error %v, json.Unmarshal error %v", got, body, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T of %q:\n got: %#v\nwant: %#v", got, body, got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	errOld := dec.Decode(&old)
	if errOld == nil && errGot != nil {
		if trailing := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(trailing) == 0 {
			t.Fatalf("%T of %q: json.Decoder accepts it without trailing data, decoder error %v", got, body, errGot)
		}
	} else if errOld != nil && errGot == nil {
		t.Fatalf("%T of %q: json.Decoder error %v, decoder accepts it", got, body, errOld)
	}
	return errGot == nil
}

// checkBody compares the decoders on body as both request types and
// reports how many of the two decodes succeeded.
func checkBody(t testing.TB, body []byte) int {
	t.Helper()
	n := 0
	if decodeBoth[CheckRequest](t, body) {
		n++
	}
	if decodeBoth[LintRequest](t, body) {
		n++
	}
	return n
}

// deep nests n arrays inside an unknown key of an object: n+1 levels.
func deep(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// decodeCases are hand-written bodies for each rule the decoder shares
// with encoding/json; they seed FuzzDecodeRequest too.
var decodeCases = []string{
	// top level
	``, ` `, `null`, ` null `, `nul`, `nullx`, `{}`, ` {} `, "\t{}\r\n", `{`, `}`, `[]`, `"x"`, `0`, `true`,
	"\ufeff{}", `{}{}`, `{} x`, `{}` + "\n" + `{"dts":"garbage {"}`, `null null`, `{},`,
	// keys: exact, case-folded, escaped, folded through U+017F and U+212A
	`{"dts":"a","DTS":"b"}`, `{"Dts":"a"}`, `{"dtſ":"a"}`, `{"DTſ":"a"}`, `{"\u0064ts":"a"}`,
	`{"coredts":"a","COREDTS":"b"}`, `{"ſemantic":true}`, `{"featuremodel":"m"}`, `{"tracK":true}`,
	`{"K":1}`, `{"vmſ":[["a"]]}`, `{"d\u0074s":"a","dt\u0053":"b"}`, `{"dts\u0000":"a"}`, "{\"dts\xff\":\"a\"}",
	// duplicates: the last wins, maps merge, arrays reuse the slice
	`{"dts":"a","dts":"b"}`, `{"includes":{"a":"1"},"includes":{"b":"2","a":"3"}}`,
	`{"includes":{"a":"1"},"includes":null,"includes":{"b":"2"}}`, `{"includes":{"a":"1"},"includes":{}}`,
	`{"vms":[["a","b"]],"vms":[["c",null]]}`, `{"vms":[["a"],["b"]],"vms":[["c"]],"vms":[["x"],[null]]}`,
	`{"vms":[["a","b","c"]],"vms":[[]],"vms":[[null,null]]}`, `{"vms":[["a"]],"vms":[],"vms":[[null]]}`,
	`{"vms":[["a"]],"vms":[null],"vms":[[null]]}`, `{"semantic":true,"semantic":false}`,
	// null
	`{"dts":null}`, `{"dts":"a","dts":null}`, `{"semantic":true,"semantic":null}`, `{"includes":null}`,
	`{"includes":{"a":null}}`, `{"vms":null}`, `{"vms":[null,["a",null]]}`, `{"mode":null,"trace":null}`,
	// unknown keys: validated and skipped
	`{"x":1}`, `{"x":-0.5e+10}`, `{"x":[1,"a",true,false,null,{"y":{}}]}`, `{"x":{"a":[{},[]]}}`,
	`{"x":01}`, `{"x":-}`, `{"x":+}`, `{"x":-01}`, `{"x":1.5.}`, `{"x":1.}`, `{"x":.5}`, `{"x":+1}`, `{"x":1e}`, `{"x":1E+}`, `{"x":0x1}`,
	`{"x":[1,]}`, `{"x":{"a":1,}}`, `{"x":{"a"}}`, `{"x":{1:2}}`, `{"x":[}`, `{"x":{]}`, `{"x":tru}`,
	`{"x":"\q"}`, `{"x":"\u12"}`, `{"x":"a` + "\x01" + `"}`, `{"x":[1 2]}`,
	deep(9998), deep(9999), deep(10000), `{"includes":{"x":` + strings.Repeat("[", 10000) + `}}`,
	// strings: every escape, surrogates, invalid UTF-8, control bytes
	`{"dts":"\"\\\/\b\f\n\r\t"}`, `{"dts":"\u003c\u003E\u0026\u00e9\u65e5"}`, `{"dts":"\ud83d\ude00"}`,
	`{"dts":"\uD83D\uDE00x"}`, `{"dts":"\ud800"}`, `{"dts":"\udc00"}`, `{"dts":"\ud800\u0041"}`,
	`{"dts":"\ud800\ud800\udc00"}`, `{"dts":"\udc00\ud800"}`, `{"dts":"\ud800\\u"}`, `{"dts":"\ud800\u12"}`,
	"{\"dts\":\"\xff\xfe\"}", "{\"dts\":\"\xed\xa0\x80\"}", "{\"dts\":\"\xe6\x97\"}", "{\"dts\":\"\xef\xbf\xbd\"}",
	"{\"dts\":\"a\tb\"}", "{\"dts\":\"a\nb\"}", "{\"dts\":\"\x7f\"}", `{"dts":"\x"}`, `{"dts":"abc`, `{"dts":"\`,
	// wrong types
	`{"dts":1}`, `{"dts":true}`, `{"dts":[]}`, `{"dts":{}}`, `{"semantic":"true"}`, `{"semantic":0}`,
	`{"includes":[]}`, `{"includes":"a"}`, `{"includes":{"a":1}}`, `{"includes":{"a":{}}}`,
	`{"vms":{}}`, `{"vms":["a"]}`, `{"vms":[[1]]}`, `{"vms":[[[]]]}`, `{"vms":[{}]}`,
	// syntax between tokens
	`{"dts" : "a" , "semantic" : true }`, `{"dts":"a" "semantic":true}`, `{"dts"}`, `{"dts":}`, `{,}`,
	`{"dts":"a",}`, `{dts:"a"}`, `{'dts':'a'}`, `{"dts":"a"]`, `{"vms":[["a"}]}`, "{\"dts\":\"a\"\x00}",
}

func TestDecodeRequestMatchesStdlib(t *testing.T) {
	t.Run("cases", func(t *testing.T) {
		for _, c := range decodeCases {
			checkBody(t, []byte(c))
		}
	})
	t.Run("workloads", func(t *testing.T) {
		for _, body := range workloadBodies(t) {
			checkBody(t, body)
		}
	})
	// Random bodies of both shapes, most of them valid requests, many
	// with stray keys, wrong types, nulls, duplicates or a corrupted
	// byte.
	for _, lint := range []bool{false, true} {
		t.Run(fmt.Sprintf("random/lint=%v", lint), func(t *testing.T) {
			const bodies = 20000
			g := bodyGen{r: rand.New(rand.NewSource(1))}
			decoded := 0
			for i := 0; i < bodies; i++ {
				decoded += checkBody(t, g.body(lint))
			}
			// Most bodies are valid as their own type, so decodes that
			// succeed, and are compared field by field, are a good share.
			t.Logf("%d of %d decodes succeeded", decoded, 2*bodies)
			if decoded < bodies/2 {
				t.Errorf("only %d of %d decodes succeeded; the comparison says little", decoded, 2*bodies)
			}
		})
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, body := range workloadBodies(f) {
		f.Add(body)
	}
	for _, c := range decodeCases {
		if len(c) < 1000 {
			f.Add([]byte(c))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkBody(t, body) })
}

// bodyGen writes random request bodies.
type bodyGen struct {
	r *rand.Rand
	b []byte
}

// fieldKinds is the value kind of every request field.
var fieldKinds = map[string]string{
	"coreDts": "string", "dts": "string", "deltas": "string", "featureModel": "string", "mode": "string",
	"includes": "map", "defines": "map", "preprocess": "bool", "semantic": "bool", "trace": "bool",
	"vms": "vms",
}

func (g *bodyGen) body(lint bool) []byte {
	g.b = g.b[:0]
	fields := checkFields.names
	if lint {
		fields = lintFields.names
	}
	if g.r.Intn(50) == 0 {
		g.b = append(g.b, "\ufeff"...)
	}
	g.space()
	switch g.r.Intn(40) {
	case 0:
		g.b = append(g.b, "null"...)
	case 1:
		g.value(0)
	default:
		g.b = append(g.b, '{')
		for n := g.r.Intn(7); n > 0; n-- {
			g.space()
			name := fields[g.r.Intn(len(fields))]
			if g.r.Intn(6) == 0 {
				name = g.str()
			}
			g.key(name)
			g.space()
			g.b = append(g.b, ':')
			g.space()
			g.field(fieldKinds[name])
			g.space()
			if n > 1 {
				g.b = append(g.b, ',')
			}
		}
		g.b = append(g.b, '}')
	}
	switch g.r.Intn(20) {
	case 0:
		g.b = append(g.b, g.pick(" x", "{}", `{"dts":"a"}`, ",", "]", "\x00", "null")...)
	case 1, 2, 3:
		g.space()
	}
	if g.r.Intn(12) == 0 && len(g.b) > 0 { // corrupt one byte
		i := g.r.Intn(len(g.b))
		switch g.r.Intn(3) {
		case 0:
			g.b = append(g.b[:i], g.b[i+1:]...)
		case 1:
			g.b[i] = g.pick(`"`, `\`, `{`, `}`, `[`, `]`, `,`, `:`, " ", "\x01", "\x80", "u", "0")[0]
		default:
			g.b = g.b[:i]
		}
	}
	return append([]byte(nil), g.b...)
}

func (g *bodyGen) pick(s ...string) string { return s[g.r.Intn(len(s))] }

func (g *bodyGen) space() {
	if g.r.Intn(3) == 0 {
		g.b = append(g.b, g.pick(" ", "\n", "\t", "\r\n  ", "  ")...)
	}
}

// key writes name as an object key, with its case changed, 's' and
// 'k' written as U+017F and U+212A, or a byte escaped now and then.
func (g *bodyGen) key(name string) {
	g.b = append(g.b, '"')
	for _, c := range []byte(name) {
		switch g.r.Intn(12) {
		case 0:
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			} else if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
		case 1:
			g.b = append(g.b, fmt.Sprintf(`\u%04x`, c)...)
			continue
		case 2:
			if c == 's' || c == 'S' {
				g.b = append(g.b, "ſ"...)
				continue
			}
			if c == 'k' || c == 'K' {
				g.b = append(g.b, "\u212a"...)
				continue
			}
		}
		g.b = g.appendRaw(g.b, c)
	}
	g.b = append(g.b, '"')
}

func (g *bodyGen) appendRaw(b []byte, c byte) []byte {
	if c == '"' || c == '\\' || c < ' ' {
		return append(b, fmt.Sprintf(`\u%04x`, c)...)
	}
	return append(b, c)
}

// field writes a value for a field of the given kind, usually of that
// kind, sometimes null or of another.
func (g *bodyGen) field(kind string) {
	if g.r.Intn(10) == 0 {
		g.b = append(g.b, "null"...)
		return
	}
	if g.r.Intn(15) == 0 {
		kind = "any"
	}
	switch kind {
	case "string":
		g.quoted()
	case "bool":
		g.b = append(g.b, g.pick("true", "false")...)
	case "map":
		g.b = append(g.b, '{')
		for n := g.r.Intn(4); n > 0; n-- {
			g.space()
			g.quoted()
			g.b = append(g.b, ':')
			g.space()
			if g.r.Intn(6) == 0 {
				g.b = append(g.b, "null"...)
			} else {
				g.quoted()
			}
			if n > 1 {
				g.b = append(g.b, ',')
			}
		}
		g.b = append(g.b, '}')
	case "vms":
		g.b = append(g.b, '[')
		for n := g.r.Intn(4); n > 0; n-- {
			g.space()
			if g.r.Intn(8) == 0 {
				g.b = append(g.b, "null"...)
			} else {
				g.b = append(g.b, '[')
				for m := g.r.Intn(4); m > 0; m-- {
					if g.r.Intn(6) == 0 {
						g.b = append(g.b, "null"...)
					} else {
						g.quoted()
					}
					if m > 1 {
						g.b = append(g.b, ',')
					}
				}
				g.b = append(g.b, ']')
			}
			if n > 1 {
				g.b = append(g.b, ',')
			}
		}
		g.b = append(g.b, ']')
	default:
		g.value(0)
	}
}

// value writes any JSON value, numbers and literals included, nested
// a few levels.
func (g *bodyGen) value(depth int) {
	k := g.r.Intn(7)
	if depth > 3 {
		k = g.r.Intn(3)
	}
	switch k {
	case 0:
		g.quoted()
	case 1:
		g.b = append(g.b, g.pick("0", "-0", "12", "-3.25", "1e10", "2E-3", "0.5e+2", "01", "-", "1.", "1e", "+1")...)
	case 2:
		g.b = append(g.b, g.pick("true", "false", "null", "nul", "True")...)
	case 3, 4:
		g.b = append(g.b, '[')
		for n := g.r.Intn(4); n > 0; n-- {
			g.space()
			g.value(depth + 1)
			if n > 1 {
				g.b = append(g.b, ',')
			}
		}
		g.b = append(g.b, ']')
	default:
		g.b = append(g.b, '{')
		for n := g.r.Intn(4); n > 0; n-- {
			g.quoted()
			g.b = append(g.b, ':')
			g.value(depth + 1)
			if n > 1 {
				g.b = append(g.b, ',')
			}
		}
		g.b = append(g.b, '}')
	}
}

// stringPieces are what string literals are built from: DTS text,
// every escape, the \u escapes json.Marshal writes for <, > and &,
// surrogate pairs and lone surrogates, and invalid UTF-8. A raw
// control byte or a bad escape is rarer and spoils the body.
var stringPieces = []string{
	"uart@10000000", "reg = <0x10000000 0x1000>;", "/dts-v1/;", " ", "é", "日本", "\u2028",
	`\n`, `\t`, `\"`, `\\`, `\/`, `\b`, `\f`, `\r`, `\u003c`, `\u003e`, `\u0026`, `\u00E9`, `\uFFFF`,
	`\ud83d\ude00`, `\uD800`, `\udfff`, `\ud800\u0041`, `\udc00\ud800`, `\ud800\ud800\udc00`,
	"\xff", "\xc3", "\xed\xa0\x80", "\xf0\x9f\x98", "\ufffd",
}

func (g *bodyGen) str() string {
	var b strings.Builder
	for n := g.r.Intn(6); n > 0; n-- {
		b.WriteString(stringPieces[g.r.Intn(len(stringPieces))])
	}
	if g.r.Intn(200) == 0 {
		b.WriteString(g.pick("\x01", "\n", `\x`, `\u12`, `\`))
	}
	return b.String()
}

func (g *bodyGen) quoted() {
	g.b = append(g.b, '"')
	g.b = append(g.b, g.str()...)
	g.b = append(g.b, '"')
}

// workloadBodies are request bodies shaped like the benchmark's four
// workloads: the running example checked in enumerate and in lifted
// mode, the 8-CPU/24-UART synthetic line with 8 VMs, and a kernel-style
// corpus board linted with its include tree.
func workloadBodies(t testing.TB) map[string][]byte {
	t.Helper()
	example := runningExampleRequest(t)
	lifted := example
	lifted.Mode = "lifted"
	out := map[string][]byte{}
	for name, req := range map[string]any{
		"example":        example,
		"example-lifted": lifted,
		"line-cached":    lineCheckRequest(t),
		"corpus-lint":    corpusLintRequest(t),
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = append(body, '\n')
	}
	return out
}

// lineCheckRequest is a /check of the synthetic 8-CPU/24-UART line with
// 8 VMs, each on its own CPU with 4 UARTs.
func lineCheckRequest(t testing.TB) CheckRequest {
	t.Helper()
	p, err := bench.SyntheticProductLine(8, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	var deltas strings.Builder
	for _, d := range p.Deltas.Deltas {
		fmt.Fprintf(&deltas, "delta %s when %s {\n", d.Name, d.When)
		for _, op := range d.Ops {
			fmt.Fprintf(&deltas, "    removes node %s;\n", op.Target)
		}
		deltas.WriteString("}\n\n")
	}
	req := CheckRequest{CoreDTS: p.Core.Print(), FeatureModel: p.Model.Format(), Deltas: deltas.String()}
	for k := 0; k < 8; k++ {
		vm := []string{"memory", fmt.Sprintf("cpu@%d", k)}
		for u := 0; u < 4; u++ {
			vm = append(vm, fmt.Sprintf("uart%d", 1+(3*k+u)%23))
		}
		req.VMs = append(req.VMs, vm)
	}
	return req
}

// corpusLintRequest is a preprocessed, semantic /lint of board-alpha
// from the kernel-style corpus, carrying the corpus's whole include tree.
func corpusLintRequest(t testing.TB) LintRequest {
	t.Helper()
	const dir = "../../testdata/corpus"
	req := LintRequest{Includes: map[string]string{}, Preprocess: true, Semantic: true}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		switch filepath.Ext(p) {
		case ".dts":
			if rel == "board-alpha.dts" {
				req.DTS = string(src)
			}
		case ".dtsi", ".h":
			req.Includes[strings.TrimPrefix(filepath.ToSlash(rel), "include/")] = string(src)
		}
		return nil
	})
	if err != nil || req.DTS == "" {
		t.Fatalf("reading the corpus: %v (board-alpha found: %v)", err, req.DTS != "")
	}
	return req
}

// TestDecodeRequestAllocs gates the decoder's allocations on a warm
// pool. Decoding the corpus-lint body may allocate each string it
// fills (the DTS, and a key and a value per include), two per map (its
// header and its table) and one per slice, plus the request itself,
// which escapes through the requestBody interface; the body's buffer
// and the decoder's scratch come from the pool. It measured 16, the
// budget; encoding/json took 42 on the same body.
func TestDecodeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	body := workloadBodies(t)["corpus-lint"]
	var r bytes.Reader
	decode := func() {
		r.Reset(body)
		var req LintRequest
		if err := readRequest(&r, &req); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	req := corpusLintRequest(t)
	strs, maps, slices := 1+2*len(req.Includes), 1, 0
	budget := float64(strs + 2*maps + slices + 1)
	got := testing.AllocsPerRun(100, decode)
	t.Logf("%.0f allocations, budget %.0f", got, budget)
	if got > budget {
		t.Errorf("decoding the corpus-lint body: %.0f allocations, budget %.0f", got, budget)
	}
}

// BenchmarkDecodeRequest decodes the corpus-lint and line-cached bodies
// as the service does, against the encoding/json decoder it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := workloadBodies(b)
	for _, name := range []string{"corpus-lint", "line-cached"} {
		body := bodies[name]
		newReq := func() requestBody { return new(CheckRequest) }
		if name == "corpus-lint" {
			newReq = func() requestBody { return new(LintRequest) }
		}
		b.Run(name+"/decoder", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			var r bytes.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				if err := readRequest(&r, newReq()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(newReq()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTrailingDataAnswers400(t *testing.T) {
	valid, err := json.Marshal(LintRequest{DTS: lintWithFindings})
	if err != nil {
		t.Fatal(err)
	}
	for _, trailing := range []string{`{"dts":"garbage {"}`, " junk", "\n,", "\x00", " \r\n\t"} {
		want := http.StatusBadRequest
		if strings.TrimSpace(trailing) == "" {
			want = http.StatusOK // whitespace may follow the object
		}
		if status, e := postRaw(t, Options{}, "/lint", append(valid[:len(valid):len(valid)], trailing...)); status != want {
			t.Errorf("body followed by %q: %d %+v, want %d", trailing, status, e, want)
		}
	}
}

// postRaw posts body to the service and returns the status and the
// error envelope, failing if the request does not finish in time.
func postRaw(t *testing.T, opts Options, path string, body []byte) (int, errorResponse) {
	t.Helper()
	type result struct {
		status int
		e      errorResponse
	}
	done := make(chan result, 1)
	go func() {
		rec := httptest.NewRecorder()
		NewHandler(opts).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var e errorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		done <- result{rec.Code, e}
	}()
	select {
	case r := <-done:
		return r.status, r.e
	case <-time.After(30 * time.Second):
		t.Fatalf("%s with a %d-byte body did not answer within 30s", path, len(body))
		return 0, errorResponse{}
	}
}

// TestHostileXorGroup sends a lifted /check whose feature model holds
// a 5,000-child XOR group. Its at-most-one constraint must be encoded
// in linear space: the pairwise encoding needs 12.5M clauses, gigabytes
// from a body of about 100 KB. The request must answer within the
// watchdog, with 200 or a typed 4xx.
func TestHostileXorGroup(t *testing.T) {
	req := runningExampleRequest(t)
	base, err := featmodel.ParseModel("featuremodel", req.FeatureModel)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]string, 5_000)
	for i := range members {
		members[i] = fmt.Sprintf("x%d", i)
	}
	big, err := base.AddVirtualGroup("xs", featmodel.GroupXor, members)
	if err != nil {
		t.Fatal(err)
	}
	req.FeatureModel, req.Mode = big.Format(), "lifted"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, e := postRaw(t, Options{}, "/check", body)
	t.Logf("%d-byte body: status %d %+v", len(body), status, e)
	if status != http.StatusOK && (status < 400 || status >= 500 || e.Error == "") {
		t.Errorf("5,000-child XOR group: status %d %+v, want 200 or a typed 4xx", status, e)
	}
}

func TestBodyCapCoversWholeBody(t *testing.T) {
	body, err := json.Marshal(LintRequest{DTS: lintWithFindings})
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, bytes.Repeat([]byte(" "), 2<<20)...)
	status, e := postRaw(t, Options{MaxBodyBytes: 1 << 20}, "/lint", body)
	if status != http.StatusRequestEntityTooLarge || e.Reason != "body-too-large" {
		t.Errorf("object plus 2 MiB of spaces under a 1 MiB cap: %d %+v, want 413 body-too-large", status, e)
	}
}

// TestHostileBodies sends bodies built to exhaust a recursive or
// quadratic decoder: each must answer a typed 400 or 413, promptly.
func TestHostileBodies(t *testing.T) {
	escapes := func(esc string, n int, end string) []byte {
		return []byte(`{"dts":"` + strings.Repeat(esc, n) + end)
	}
	cases := []struct {
		name   string
		opts   Options
		path   string
		body   []byte
		status int
		want   string // in the error text, or the reason of a 413
	}{
		{"1 MiB of [ in an unknown field", Options{}, "/lint",
			append([]byte(`{"x":`), bytes.Repeat([]byte("["), 1<<20)...), 400, "nesting exceeds 10000"},
		{"1 MiB of [ in an unknown field of /check", Options{}, "/check",
			append([]byte(`{"x":`), bytes.Repeat([]byte("["), 1<<20)...), 400, "nesting exceeds 10000"},
		{"1 MiB of [ in a map field", Options{}, "/lint",
			append([]byte(`{"includes":{"a":`), bytes.Repeat([]byte("["), 1<<20)...), 400, "want a string"},
		{"4 MiB string of \\u escapes over the cap", Options{}, "/lint",
			escapes(`\u0041`, 4<<20/6, `"}`), 413, "body-too-large"},
		{"4 MiB string of lone surrogates, unterminated", Options{MaxBodyBytes: 8 << 20}, "/lint",
			escapes(`\ud800`, 4<<20/6, ""), 400, "unexpected end of input"},
		{"4 MiB string of \\u escapes, then a bad one", Options{MaxBodyBytes: 8 << 20}, "/check",
			escapes(`\u003c`, 4<<20/6, `\u12"}`), 400, "invalid \\u escape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, e := postRaw(t, tc.opts, tc.path, tc.body)
			got := e.Error
			if status == http.StatusRequestEntityTooLarge {
				got = e.Reason
			}
			if status != tc.status || !strings.Contains(got, tc.want) {
				t.Errorf("status %d %+v, want %d with %q", status, e, tc.status, tc.want)
			}
		})
	}
}
