package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llhsc/internal/bench"
)

// stdlibIndent is the oracle: what json.Encoder writes with
// SetIndent("", "  "), the encoding every reply had before writeJSON
// indented its own compact output. A marshal error yields no bytes.
func stdlibIndent(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

func writeJSONBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// jsonPieces are the fragments random strings are built from: every
// byte encoding/json escapes, runs of backslashes before quotes, JSON
// punctuation and invalid UTF-8.
var jsonPieces = []string{
	`"`, `\`, `\"`, `\\"`, `\\\"`, `\\\\`, `""`, "<", ">", "&", "</script>",
	"\x00", "\x01", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t",
	"\u2028", "\u2029", "\xff", "\xc3(", "\xe2\x82", "é", "日本",
	"{", "}", "[", "]", ",", ":", " ", "{}", "[]", "a", "uart@1000", "0x10",
}

func randomString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(8); n > 0; n-- {
		b.WriteString(jsonPieces[r.Intn(len(jsonPieces))])
	}
	return b.String()
}

// jsonShape has the struct features replies use: omitempty fields,
// pointers, byte slices and a raw message with whitespace of its own.
type jsonShape struct {
	Name  string          `json:"name"`
	Skip  string          `json:"skip,omitempty"`
	Next  *jsonShape      `json:"next,omitempty"`
	Bytes []byte          `json:"bytes"`
	Raw   json.RawMessage `json:"raw,omitempty"`
	Any   any             `json:"any"`
}

var jsonNumbers = []any{
	0, -1, 42, int64(math.MaxInt64), uint64(math.MaxUint64), 0.5, -0.0,
	1e20, 1e21, 1e-6, 1e-7, math.Pi, float32(0.1), json.Number("-12.5e+3"),
}

func randomDoc(r *rand.Rand, depth int) any {
	if depth > 4 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			return jsonNumbers[r.Intn(len(jsonNumbers))]
		case 1:
			return r.Intn(2) == 0
		case 2:
			return nil
		}
		return randomString(r)
	}
	switch r.Intn(6) {
	case 0:
		m := map[string]any{}
		for n := r.Intn(5); n > 0; n-- {
			m[randomString(r)] = randomDoc(r, depth+1)
		}
		return m
	case 1:
		var s []any
		if r.Intn(4) > 0 {
			s = []any{}
		}
		for n := r.Intn(5); n > 0; n-- {
			s = append(s, randomDoc(r, depth+1))
		}
		return s
	case 2:
		return []string{randomString(r), randomString(r)}
	case 3:
		sh := &jsonShape{Name: randomString(r), Any: randomDoc(r, depth+1)}
		if r.Intn(2) == 0 {
			sh.Skip = randomString(r)
			sh.Bytes = []byte(randomString(r))
		}
		if r.Intn(3) == 0 {
			sh.Raw = json.RawMessage(` { "k" : [ 1 , "a b" , { } , [ ] ] } `)
		}
		if r.Intn(3) == 0 {
			sh.Next = &jsonShape{Name: randomString(r)}
		}
		return sh
	case 4:
		return map[string][]int{"": {}, randomString(r): {1, 2}}
	}
	return map[string]any{randomString(r): map[string]any{}, "e": []any{}}
}

// serve runs one request through the full handler and returns the
// reply body.
func serve(t *testing.T, h http.Handler, method, path string, body any) []byte {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec.Body.Bytes()
}

// runningExampleRequest is the running example as /example serves it.
func runningExampleRequest(t testing.TB) CheckRequest {
	t.Helper()
	var req CheckRequest
	rec := httptest.NewRecorder()
	handleExample(rec, httptest.NewRequest(http.MethodGet, "/example", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

const lintWithFindings = `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
	uart@40000000 { compatible = "ns16550a"; reg = <0x40000000 0x1000>; interrupts = <5>; };
	uart@50000000 { compatible = "ns16550a"; reg = <0x50000000 0x1000>; interrupts = <5>; };
};
`

func TestWriteJSONMatchesStdlibIndent(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			v := randomDoc(r, 0)
			if got, want := writeJSONBody(v), stdlibIndent(v); !bytes.Equal(got, want) {
				t.Fatalf("document %d differs:\n got: %q\nwant: %q", i, got, want)
			}
		}
	})

	// The real replies: each body is decoded into its reply type and
	// re-encoded by the oracle, so a byte the writer changed inside a
	// string shows as well as one it changed between tokens.
	h := NewHandler(Options{CacheSize: 8})
	example := runningExampleRequest(t)
	lifted := example
	lifted.Mode = "lifted"
	cases := []struct {
		name         string
		method, path string
		body         any
		into         any
	}{
		{"example", http.MethodGet, "/example", nil, &CheckRequest{}},
		{"check-enumerate", http.MethodPost, "/check", example, &CheckResponse{}},
		{"check-lifted", http.MethodPost, "/check", lifted, &CheckResponse{}},
		{"lint-semantic", http.MethodPost, "/lint", LintRequest{DTS: lintWithFindings, Semantic: true}, &LintResponse{}},
		{"error-envelope", http.MethodPost, "/lint", LintRequest{DTS: "/ {"}, &errorResponse{}},
		{"healthz", http.MethodGet, "/healthz", nil, &map[string]json.RawMessage{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := serve(t, h, tc.method, tc.path, tc.body)
			if err := json.Unmarshal(got, tc.into); err != nil {
				t.Fatalf("decode: %v\n%s", err, got)
			}
			if want := stdlibIndent(tc.into); !bytes.Equal(got, want) {
				t.Errorf("reply differs from the stdlib indent:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func FuzzWriteJSON(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `{"a":[1,{"b":"\\\""}],"c":{}}`, `"<&> "`, `-0.5e10`,
		"\"\xff\"", `[[[],{}],[{"":null}]]`, ` { "k" : [ true , false ] } `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		docs := []any{string(data), []byte(data), map[string]string{string(data): string(data)}}
		if json.Valid(data) {
			var decoded any
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, json.RawMessage(data), decoded)
		}
		for _, v := range docs {
			if got, want := writeJSONBody(v), stdlibIndent(v); !bytes.Equal(got, want) {
				t.Fatalf("%T differs:\n got: %q\nwant: %q", v, got, want)
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so an
// allocation count sees only the encoder's own.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// checkReply is the /check reply for req, decoded.
func checkReply(t testing.TB, req CheckRequest) *CheckResponse {
	t.Helper()
	svc, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := svc.srv.runCheck(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	return checkResponse(&res)
}

// TestWriteJSONAllocs gates the writer's allocations on a warm pool:
// the running example's /check reply costs what marshalling it costs,
// and the indent pass and the buffers nothing. It measured 12 (the
// stdlib indent path 27); a writer that stops reusing its buffers
// regrows both on every reply and fails.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	resp := checkReply(t, runningExampleRequest(t))
	w := discardWriter{h: http.Header{}}
	writeJSON(w, http.StatusOK, resp)
	const budget = 14
	if got := testing.AllocsPerRun(100, func() { writeJSON(w, http.StatusOK, resp) }); got > budget {
		t.Errorf("writeJSON: %.0f allocations per reply, budget %d", got, budget)
	}
}

// BenchmarkWriteJSON encodes a reply shaped like line-cached's: the 8
// VMs of the synthetic 8-CPU/24-UART line. writeCheckReply writes it
// from the report, artifacts rendered on the way; writeJSON and the
// stdlib indent path encode the CheckResponse the report converts to,
// artifact strings already rendered, as every /check reply was written
// before writeCheckReply.
func BenchmarkWriteJSON(b *testing.B) {
	p, err := bench.SyntheticProductLine(8, 24, 8)
	if err != nil {
		b.Fatal(err)
	}
	report, err := p.Run()
	if err != nil {
		b.Fatal(err)
	}
	res := &checkResult{report: report}
	resp := checkResponse(res)
	w := discardWriter{h: http.Header{}}
	size := int64(len(stdlibIndent(resp)))
	b.Run("writeCheckReply", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeCheckReply(w, res)
		}
	})
	b.Run("writeJSON", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, resp)
		}
	})
	b.Run("stdlib-indent", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp)
		}
	})
}
