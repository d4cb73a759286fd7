package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llhsc/internal/delta"
	"llhsc/internal/obs"
	"llhsc/internal/runningexample"
)

// postCheck sends body to /check through h's whole handler stack under
// a fixed request ID, so two replies compare byte for byte.
func postCheck(t testing.TB, h http.Handler, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body))
	r.Header.Set("X-Request-ID", "memo-test")
	h.ServeHTTP(rec, r)
	return rec.Code, rec.Body.Bytes()
}

func marshalBody(t testing.TB, req CheckRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// memoShapes are /check bodies of every shape the front end parses: the
// running example in both modes, a preprocessed core with #include and
// a macro from Defines, and a /plugin/ overlay core whose fragment
// targets a label the core lacks.
func memoShapes(t testing.TB) map[string]CheckRequest {
	t.Helper()
	example := runningExampleRequest(t)
	lifted := example
	lifted.Mode = "lifted"
	preprocessed := example
	preprocessed.CoreDTS = strings.NewReplacer(
		`/include/ "cpus.dtsi"`, `#include "cpus.dtsi"`,
		"0x0 0x20000000 0x0 0x1000", "0x0 UART0_BASE 0x0 0x1000",
	).Replace(example.CoreDTS)
	preprocessed.Defines = map[string]string{"UART0_BASE": "0x20000000"}
	plugin := example
	plugin.CoreDTS = strings.Replace(example.CoreDTS, "/dts-v1/;", "/dts-v1/;\n/plugin/;", 1) +
		"\n&board_intc {\n\tstatus = \"okay\";\n};\n"
	return map[string]CheckRequest{
		"example": example, "example-lifted": lifted,
		"preprocessed": preprocessed, "plugin": plugin,
	}
}

// TestFrontEndMemoHitRepliesIdentically checks that a reply served from
// a memoised front end is byte-identical to a fresh service's, for every
// body shape and for VM selections other than the one that filled the
// memo.
func TestFrontEndMemoHitRepliesIdentically(t *testing.T) {
	selections := [][][]string{
		{runningexample.VM1Config().Sorted(), runningexample.VM2Config().Sorted()},
		{{"memory", "cpu@0", "uart0"}, {"memory", "cpu@0", "uart1"}}, // both VMs claim cpu@0
		{{"memory", "cpu@1", "uart1", "veth0"}},
	}
	for name, req := range memoShapes(t) {
		t.Run(name, func(t *testing.T) {
			warm := NewHandler(Options{})
			if status, reply := postCheck(t, warm, marshalBody(t, req)); status != http.StatusOK {
				t.Fatalf("filling the memo: status %d: %s", status, reply)
			}
			for _, vms := range selections {
				req := req
				req.VMs = vms
				body := marshalBody(t, req)
				status, got := postCheck(t, warm, body)
				wantStatus, want := postCheck(t, NewHandler(Options{}), body)
				if status != wantStatus || !bytes.Equal(got, want) {
					t.Errorf("vms %v: memo hit answered %d:\n%s\nfresh service answered %d:\n%s",
						vms, status, got, wantStatus, want)
				}
			}
			memo := &warm.(*Service).srv.memo
			if hits, misses := memo.hits.Value(), memo.misses.Value(); hits != uint64(len(selections)) || misses != 1 {
				t.Errorf("memo counted %d hits and %d misses, want %d and 1", hits, misses, len(selections))
			}
		})
	}
}

// TestFrontEndMemoSharedAcrossConcurrentRequests runs enumerate and
// lifted requests concurrently on one memo entry and checks that none
// of them wrote the shared core tree, feature model or lifted tree (the
// delta set's memoised Lift of the core). Run it under -race: a write
// any request makes to the shared front end is a race with the others'
// reads.
func TestFrontEndMemoSharedAcrossConcurrentRequests(t *testing.T) {
	svc, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	example := runningExampleRequest(t)
	if status, reply := postCheck(t, svc, marshalBody(t, example)); status != http.StatusOK {
		t.Fatalf("filling the memo: status %d: %s", status, reply)
	}
	fe := svc.srv.memo.last.Load()
	if fe == nil {
		t.Fatal("the memo holds nothing after a successful check")
	}
	printed, origins, model := fe.core.Print(), fe.core.OriginDump(), fe.model.Format()

	var bodies [][]byte
	for _, mode := range []string{"enumerate", "lifted"} {
		for _, vms := range [][][]string{
			example.VMs,
			{{"memory", "cpu@0", "uart0", "veth0"}, {"memory", "cpu@1", "uart1", "veth1"}},
			{{"memory", "cpu@0", "uart0"}, {"memory", "cpu@0", "uart1"}},
		} {
			req := example
			req.Mode, req.VMs = mode, vms
			bodies = append(bodies, marshalBody(t, req))
		}
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		_, want[i] = postCheck(t, NewHandler(Options{}), body)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*len(bodies); k++ {
				i := (w + k) % len(bodies)
				if status, got := postCheck(t, svc, bodies[i]); status != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("body %d: status %d, reply differs from a fresh service's: %s", i, status, got)
				}
			}
		}(w)
	}
	wg.Wait()

	if fe.core.Print() != printed || fe.core.OriginDump() != origins {
		t.Error("concurrent requests wrote the memoised core tree")
	}
	if fe.model.Format() != model {
		t.Error("concurrent requests wrote the memoised feature model")
	}
	if allocs := testing.AllocsPerRun(1, func() { fe.deltas.Lift(fe.core) }); allocs != 0 {
		t.Errorf("the lifted requests left no memoised lift (Lift allocates %.0f times)", allocs)
	}
	shared, err := fe.deltas.Lift(fe.core)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := delta.NewSet(fe.deltas.Deltas) // same deltas, no memo
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cold.Lift(fe.core)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("concurrent requests wrote the memoised lifted tree")
	}
	if misses := svc.srv.memo.misses.Value(); misses != 1 {
		t.Errorf("memo counted %d misses, want 1: every request should share the first parse", misses)
	}
}

// TestFrontEndMemoKeysEveryInput checks that bodies differing in only
// one parsed input — one include file, one define, the preprocess
// switch, the deltas or the feature model — or only in which map holds
// a pair, never share a memo entry.
func TestFrontEndMemoKeysEveryInput(t *testing.T) {
	base := runningExampleRequest(t)
	base.Includes = map[string]string{"cpus.dtsi": runningexample.CPUsDTSI, "extra.dtsi": "/ { };"}
	base.Defines = map[string]string{"UNUSED": "1"}
	variants := map[string]func(*CheckRequest){
		"base":            func(*CheckRequest) {},
		"include content": func(r *CheckRequest) { r.Includes["extra.dtsi"] = "/ { x; };" },
		"include name": func(r *CheckRequest) {
			r.Includes["other.dtsi"] = r.Includes["extra.dtsi"]
			delete(r.Includes, "extra.dtsi")
		},
		"define value": func(r *CheckRequest) { r.Defines["UNUSED"] = "2" },
		"define added": func(r *CheckRequest) { r.Defines["ALSO_UNUSED"] = "" },
		"no defines":   func(r *CheckRequest) { r.Defines = nil },
		"no defines, preprocess": func(r *CheckRequest) {
			r.Defines, r.Preprocess = nil, true
		},
		"pair in the other map": func(r *CheckRequest) {
			r.Defines = nil
			r.Includes["UNUSED"] = "1"
		},
		"deltas":        func(r *CheckRequest) { r.Deltas += "\n" },
		"feature model": func(r *CheckRequest) { r.FeatureModel += "\n" },
		"core":          func(r *CheckRequest) { r.CoreDTS += "\n" },
	}
	svc, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, edit := range variants {
		req := base
		req.Includes = map[string]string{}
		for k, v := range base.Includes {
			req.Includes[k] = v
		}
		req.Defines = map[string]string{}
		for k, v := range base.Defines {
			req.Defines[k] = v
		}
		edit(&req)
		key := frontEndKey(&req)
		if other, dup := keys[key]; dup {
			t.Errorf("%q and %q share the memo key %s", name, other, key)
		}
		keys[key] = name
		if status, reply := postCheck(t, svc, marshalBody(t, req)); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, reply)
		}
	}
	if hits := svc.srv.memo.hits.Value(); hits != 0 {
		t.Errorf("%d of %d distinct bodies hit another body's memo entry", hits, len(variants))
	}
}

// TestFrontEndMemoSkipsFailedParses checks that a body whose core,
// deltas or feature model fails to parse is never memoised and gets the
// same reply every time it is sent.
func TestFrontEndMemoSkipsFailedParses(t *testing.T) {
	example := runningExampleRequest(t)
	badCore, badDeltas, badModel, tooDeep := example, example, example, example
	badCore.CoreDTS = "/dts-v1/;\n/ { uart@0 { reg = <1 2>; };"
	badDeltas.Deltas = "delta d1 when {"
	badModel.FeatureModel = "feature"
	tooDeep.CoreDTS = "/dts-v1/;\n/ {" + strings.Repeat(" n {", 80) + strings.Repeat(" };", 80) + " };"
	svc, err := NewService(Options{MaxNodeDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]CheckRequest{
		"core": badCore, "deltas": badDeltas, "feature model": badModel, "too deep": tooDeep,
	} {
		body := marshalBody(t, req)
		status, first := postCheck(t, svc, body)
		if status != http.StatusUnprocessableEntity && status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 422 or 413: %s", name, status, first)
		}
		if status2, second := postCheck(t, svc, body); status2 != status || !bytes.Equal(first, second) {
			t.Errorf("%s: second reply %d %s differs from the first %d %s", name, status2, second, status, first)
		}
	}
	if svc.srv.memo.last.Load() != nil {
		t.Error("the memo holds an entry after failed parses only")
	}
	if hits := svc.srv.memo.hits.Value(); hits != 0 {
		t.Errorf("failed parses hit the memo %d times", hits)
	}
}

// TestFrontEndMemoBounds checks that the memo holds one front end, the
// last one parsed, and that a small body whose #include expansion
// exceeds MaxBodyBytes fails its parse and is never memoised: the memo
// retains no more than one request's parse, and the parse limits bound
// that by the source the parse read, every inclusion counted.
func TestFrontEndMemoBounds(t *testing.T) {
	example := runningExampleRequest(t)
	svc, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo := &svc.srv.memo
	for i := 0; i < 4; i++ {
		req := example
		req.CoreDTS = fmt.Sprintf("%s// body %d\n", example.CoreDTS, i)
		if status, reply := postCheck(t, svc, marshalBody(t, req)); status != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, status, reply)
		}
		if e := memo.last.Load(); e == nil || e.key != frontEndKey(&req) {
			t.Fatalf("after body %d the memo does not hold that body's front end", i)
		}
	}

	// One 4 KiB include inside 32 distinct nodes: the body is small, its
	// expansion is 128 KiB.
	padded := example
	padded.Preprocess = true
	padded.Includes = map[string]string{
		"cpus.dtsi": example.Includes["cpus.dtsi"],
		"pad.dtsi":  "\tpad = \"" + strings.Repeat("x", 4096) + "\";\n",
	}
	var nodes strings.Builder
	nodes.WriteString("\n/ {\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&nodes, "\tpad%d {\n#include \"pad.dtsi\"\n\t};\n", i)
	}
	nodes.WriteString("};\n")
	padded.CoreDTS = example.CoreDTS + nodes.String()
	body := marshalBody(t, padded)

	small, err := NewService(Options{MaxBodyBytes: 2 * int64(len(body))})
	if err != nil {
		t.Fatal(err)
	}
	if status, reply := postCheck(t, small, marshalBody(t, example)); status != http.StatusOK {
		t.Fatalf("filling the memo: status %d: %s", status, reply)
	}
	held := small.srv.memo.last.Load()
	if status, reply := postCheck(t, small, body); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body expanding to 128 KiB under a %d-byte limit: status %d, want 413: %s",
			len(body), 2*len(body), status, reply)
	}
	if small.srv.memo.last.Load() != held {
		t.Error("a body whose expansion exceeds the limit replaced the memoised front end")
	}
	if status, reply := postCheck(t, svc, body); status != http.StatusOK {
		t.Fatalf("the same body under the default limit: status %d: %s", status, reply)
	}
	if e := memo.last.Load(); e == nil || e.key != frontEndKey(&padded) {
		t.Error("the memo does not hold the expanded body's front end")
	}
}

// TestFrontEndMemoMetrics checks that the memo's counters reach
// /metrics.
func TestFrontEndMemoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := NewService(Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	body := marshalBody(t, runningExampleRequest(t))
	for i := 0; i < 3; i++ {
		if status, reply := postCheck(t, svc, body); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, reply)
		}
	}
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	if got := metricValue(t, text.String(), "llhsc_frontend_memo_hits_total"); got != 2 {
		t.Errorf("llhsc_frontend_memo_hits_total = %v, want 2", got)
	}
	if got := metricValue(t, text.String(), "llhsc_frontend_memo_misses_total"); got != 1 {
		t.Errorf("llhsc_frontend_memo_misses_total = %v, want 1", got)
	}
}
