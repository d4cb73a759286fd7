package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"llhsc/internal/baogen"
	"llhsc/internal/conform"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
)

// checkResponse is the oracle for the /check reply writer: the
// finished run converted to the CheckResponse wire type, every
// artifact rendered to a string. json.Encoder with SetIndent("", "  ")
// over it writes the bytes the reply must be.
func checkResponse(res *checkResult) *CheckResponse {
	report := res.report
	stats := report.Stats
	resp := &CheckResponse{
		OK:         report.OK(),
		Stats:      &stats,
		Allocation: toViolations(report.Allocation),
		Lifted:     toLiftedFindings(report.Lifted),
		Platform: VMResult{
			Name:       "platform",
			Deltas:     report.Platform.Trace,
			DTS:        report.Platform.DTS,
			Violations: toViolations(report.Platform.Violations),
		},
		PlatformC:       report.Artifacts.PlatformC(),
		ConfigC:         report.Artifacts.ConfigC(),
		JailhouseRootC:  report.Artifacts.JailhouseRootC(),
		JailhouseCellsC: report.Artifacts.JailhouseCellsC(),
		QEMUArgs:        report.Artifacts.QEMUArgs(),
		RequestID:       res.requestID,
		Trace:           res.trace,
	}
	for _, vm := range report.VMs {
		resp.VMs = append(resp.VMs, VMResult{
			Name:       vm.Name,
			Deltas:     vm.Trace,
			DTS:        vm.DTS,
			Violations: toViolations(vm.Violations),
		})
	}
	return resp
}

// toLiftedFindings converts a lifted-mode report's findings to their
// JSON shape (the witness configuration flattens to its sorted feature
// names).
func toLiftedFindings(fs []constraints.LiftedFinding) []LiftedFinding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]LiftedFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, LiftedFinding{
			Family:    f.Family,
			Violation: toViolations([]constraints.Violation{f.Violation})[0],
			Config:    f.Config.Sorted(),
		})
	}
	return out
}

func toViolations(vs []constraints.Violation) []Violation {
	out := make([]Violation, 0, len(vs))
	for _, v := range vs {
		out = append(out, Violation{
			Path:     v.Path,
			Property: v.Property,
			Rule:     v.Rule,
			Message:  v.Message,
			Delta:    v.Origin.Delta,
		})
	}
	return out
}

// checkReplyBytes is what writeCheckReply writes for res.
func checkReplyBytes(res *checkResult) []byte {
	rec := httptest.NewRecorder()
	writeCheckReply(rec, res)
	return rec.Body.Bytes()
}

// requireStdlibReply fails unless the writer's reply for res is the
// oracle's, byte for byte.
func requireStdlibReply(t *testing.T, res *checkResult) {
	t.Helper()
	got, want := checkReplyBytes(res), stdlibIndent(checkResponse(res))
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("reply differs from the stdlib encoding at byte %d:\n got: %q\nwant: %q",
			i, got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
	}
}

// clashDelta moves uart1 onto the second memory bank of the running
// example, so every product with uart1 and a veth fails the overlap
// rule, blamed on the delta.
const clashDelta = `
delta clash after d6 when uart1 && (veth0 || veth1) {
    modifies uart@30000000 {
        reg = <0x60000000 0x1000>;
    }
}
`

// conformHardware gives a conformance core a CPU and a memory bank, so
// a product that passes its checks also yields artifacts.
const conformHardware = `
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 { device_type = "cpu"; reg = <0>; };
	};
	memory@7f000000 { device_type = "memory"; reg = <0x0 0x7f000000 0x0 0x1000>; };
};
`

// conformRequests are /check bodies built from the conformance seeds,
// each core given conformHardware: each generated case of seeds 1 to 8
// (a core, deltas over the features fa, fb and fc, and its
// configuration as one VM next to a VM of every feature), and each
// seed DTS under one delta whose property value needs escaping.
func conformRequests(t *testing.T) map[string]CheckRequest {
	t.Helper()
	model := "feature conform abstract {\n    feature " + strings.Join(conform.Features, "\n    feature ") + "\n}\n"
	out := map[string]CheckRequest{}
	for seed := int64(1); seed <= 8; seed++ {
		c := conform.GenerateCase(seed)
		var selected []string
		for _, f := range conform.Features {
			if c.Config[f] {
				selected = append(selected, f)
			}
		}
		out[fmt.Sprintf("generated-%d", seed)] = CheckRequest{
			CoreDTS: c.Source + conformHardware, Deltas: c.Deltas, FeatureModel: model,
			VMs: [][]string{selected, conform.Features},
		}
	}
	files, err := filepath.Glob("../conform/testdata/seed_*.dts")
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance seed DTS: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(file)] = CheckRequest{
			CoreDTS:      string(src) + conformHardware,
			Deltas:       "delta note when fa {\n    modifies / {\n        note = \"<&>\\\"\\\\\\t\u2028\";\n    }\n}\n",
			FeatureModel: model,
			VMs:          [][]string{{"fa"}, {"fb"}},
		}
	}
	return out
}

// TestCheckReplyMatchesStdlib holds writeCheckReply to json.Encoder
// with SetIndent over the CheckResponse oracle, byte for byte: the
// running example in both modes, passing and failing, traced, with a
// request ID and as a warm cache hit; the synthetic 8-CPU/24-UART
// line passing and failing; and the conformance seeds. In lifted mode
// the running example's stats carry its 12 products and the line's,
// checked in a session, none.
func TestCheckReplyMatchesStdlib(t *testing.T) {
	example := runningExampleRequest(t)
	clash := example
	clash.Deltas += clashDelta
	line := lineCheckRequest(t)
	lineClash := line
	lineClash.VMs = append([][]string{line.VMs[0]}, line.VMs...) // two VMs on cpu@0

	type tc struct {
		name      string
		req       CheckRequest
		requestID string
	}
	var cases []tc
	for _, mode := range []string{"enumerate", "lifted"} {
		for name, req := range map[string]CheckRequest{
			"example": example, "clash": clash, "line": line, "line-clash": lineClash,
		} {
			req.Mode = mode
			cases = append(cases, tc{name: name + "/" + mode, req: req})
			req.Trace = true
			cases = append(cases, tc{name: name + "/" + mode + "/trace", req: req, requestID: "9f86d081884c7d65"})
		}
	}
	for name, req := range conformRequests(t) {
		cases = append(cases, tc{name: "conform/" + name, req: req})
	}

	svc, err := NewService(Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	passed, failed, cached := 0, 0, 0
	sets, sessions := 0, 0 // lifted replies with and without stats.lifted.products
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The second run of each body is a warm hit.
			for run := 0; run < 2; run++ {
				req := c.req
				res, status, err := svc.srv.runCheck(context.Background(), &req)
				if err != nil {
					if strings.HasPrefix(c.name, "conform/") {
						t.Skipf("no reply to check (%d): %v", status, err)
					}
					t.Fatal(err)
				}
				res.requestID = c.requestID
				requireStdlibReply(t, &res)
				if res.report.OK() {
					passed++
				} else {
					failed++
				}
				if res.report.Stats.CacheHits > 0 {
					cached++
				}
				if l := res.report.Stats.Lifted; l != nil && l.Products > 0 {
					sets++
				} else if l != nil {
					sessions++
				}
				if c.req.Trace && res.trace == nil {
					t.Error("a traced run carries no trace")
				}
				res.report.Release()
			}
		})
	}
	if passed == 0 || failed == 0 || cached == 0 {
		t.Errorf("%d passing, %d failing and %d cached replies; want some of each", passed, failed, cached)
	}
	if sets == 0 || sessions == 0 {
		t.Errorf("%d lifted replies over product sets and %d over a session; want some of each", sets, sessions)
	}
}

// TestCheckReplyCoversEveryField fills every field of a report, its
// stats included, by reflection, so a field added to the wire types
// or to core.RunStats that the writer does not write fails here even
// before a real run sets it.
func TestCheckReplyCoversEveryField(t *testing.T) {
	v := constraints.Violation{Path: "/p", Property: "reg", Rule: "r", Message: "m"}
	v.Origin.Delta = "d"
	report := &core.Report{
		Allocation: []constraints.Violation{v},
		Lifted: []constraints.LiftedFinding{{
			Family: "semantic", Violation: v, Config: featmodel.ConfigOf("b", "a"),
		}},
		VMs: []core.VMResult{{Name: "vm1", Trace: []string{"d"}, DTS: "/ {};", Violations: []constraints.Violation{v}}},
		Platform: core.PlatformResult{
			Trace: []string{}, DTS: "/ {};", Violations: []constraints.Violation{v},
		},
	}
	fillNonZero(t, reflect.ValueOf(&report.Stats).Elem())
	p := &baogen.Platform{CPUNum: 1, Regions: []baogen.MemRegion{{Base: 1 << 30, Size: 1 << 30}}, Clusters: []baogen.Cluster{{CoreNum: 1}}}
	report.Artifacts = core.Artifacts{Platform: p, Config: baogen.NewConfig([]*baogen.VM{{
		Name: "vm1", CPUNum: 1, CPUAffinity: 1, Regions: p.Regions,
	}})}
	trace := obs.SpanSnapshot{Name: "request", Attrs: []obs.Attr{{Key: "k", Value: "<v>"}}}
	requireStdlibReply(t, &checkResult{report: report, requestID: "id", trace: &trace})

	resp := checkResponse(&checkResult{report: report, requestID: "id", trace: &trace})
	for _, field := range zeroFields(reflect.ValueOf(resp).Elem(), "CheckResponse") {
		t.Errorf("the filled report leaves %s zero; fill it", field)
	}
}

// fillNonZero sets every integer reachable from v to a distinct
// non-zero value, allocating pointers and giving maps two entries.
func fillNonZero(t *testing.T, v reflect.Value) {
	next := uint64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int:
			next++
			v.SetInt(int64(next))
		case reflect.Uint64:
			next++
			v.SetUint(next)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for _, k := range []string{"zeta", "alpha"} {
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e)
				v.SetMapIndex(reflect.ValueOf(k), e)
			}
		default:
			t.Fatalf("fillNonZero: cannot fill a %s", v.Type())
		}
	}
	fill(v)
}

// zeroFields names the zero-valued struct fields reachable from v.
func zeroFields(v reflect.Value, path string) []string {
	var out []string
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = zeroFields(v.Elem(), path)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeroFields(v.Index(i), path+"[]")...)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			out = append(out, zeroFields(iter.Value(), path+"[]")...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			if f.IsZero() && name != "CheckResponse.OK" && !strings.HasPrefix(name, "CheckResponse.Trace.") {
				out = append(out, name)
			}
			out = append(out, zeroFields(f, name)...)
		}
	}
	return out
}

// FuzzWriteCheckReply holds the writer to the oracle on hostile text:
// <, > and &, U+2028 and U+2029, invalid UTF-8, quotes and backslashes
// in violation messages, DTS text, VM and delta names, lifted witness
// names and the request ID, on passing and failing reports.
func FuzzWriteCheckReply(f *testing.F) {
	for _, s := range []string{
		"", "<&>", "\u2028\u2029", "\xff\xfe", `"\"\\`, "\x00\x1f\x7f\b\f\n\r\t", "é日本", "</script>",
	} {
		f.Add(s, s, s, true)
		f.Add(s, "vm1", "d1", false)
	}
	f.Fuzz(func(t *testing.T, text, name, deltaName string, pass bool) {
		v := constraints.Violation{Path: "/" + name, Property: text, Rule: "rule:" + deltaName, Message: text}
		v.Origin.Delta = deltaName
		report := &core.Report{
			VMs: []core.VMResult{
				{Name: name, Trace: []string{deltaName, text}, DTS: text},
				{Name: "vm2", DTS: "/dts-v1/;\n/ { note = \"" + text + "\"; };\n"},
			},
			Platform: core.PlatformResult{Trace: []string{deltaName}, DTS: text},
			Stats:    core.RunStats{Families: map[string]core.FamilyStats{text: {Checks: 1}, "allocation": {Checks: 2, Pairs: 3}}},
		}
		if pass {
			vm := &baogen.VM{Name: name, CPUNum: 1, CPUAffinity: 1, Regions: []baogen.MemRegion{{Base: 0x40000000, Size: 0x1000}}}
			p := &baogen.Platform{CPUNum: 1, Regions: vm.Regions, ConsoleBase: 0x1000, Clusters: []baogen.Cluster{{CoreNum: 1}}}
			report.Artifacts = core.Artifacts{Platform: p, Config: baogen.NewConfig([]*baogen.VM{vm, vm.Named(text)})}
		} else {
			report.Allocation = []constraints.Violation{v}
			report.VMs[0].Violations = []constraints.Violation{v, v}
			report.Lifted = []constraints.LiftedFinding{{
				Family: text, Violation: v, Config: featmodel.ConfigOf(name, text, deltaName),
			}}
			report.Stats.Lifted = &core.LiftedRunStats{Queries: 1, Findings: 1}
		}
		requireStdlibReply(t, &checkResult{report: report, requestID: text})
	})
}

// TestWriteCheckReplyAllocs gates the /check writer on a warm pool: a
// passing reply of the synthetic 8-CPU/24-UART line renders all its
// artifacts into the pooled buffers and allocates only the
// Content-Type header's value.
func TestWriteCheckReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	req := lineCheckRequest(t)
	svc, err := NewService(Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := svc.srv.runCheck(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.report.OK() {
		t.Fatal("the synthetic line fails")
	}
	w := discardWriter{h: http.Header{}}
	writeCheckReply(w, &res)
	if got := testing.AllocsPerRun(100, func() { writeCheckReply(w, &res) }); got > 1 {
		t.Errorf("writeCheckReply: %.0f allocations per reply, want 1", got)
	}
}

// TestWarmLineCheckAllocs gates a warm passing /check of the synthetic
// 8-CPU/24-UART line through the whole handler: every product a cache
// hit, the front end memoised, the reply written from the report. It
// counts the allocations of decoding, completing the 8 configurations,
// the cache lookups, the report and the request scope; rendering an
// artifact to a string would add one allocation or more per artifact.
// It measured 187 allocations and ~29.9 KB; with the artifacts rendered
// into strings and the reply marshalled from a CheckResponse, 613 and
// ~63.2 KB.
func TestWarmLineCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	h := NewHandler(Options{CacheSize: 64})
	body := marshalBody(t, lineCheckRequest(t))
	w := discardWriter{h: http.Header{}}
	serve := func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(body)))
	}
	serve()
	const budget = 200
	got := testing.AllocsPerRun(50, serve)
	t.Logf("warm /check of the synthetic line: %.0f allocations", got)
	if got > budget {
		t.Errorf("warm /check of the synthetic line: %.0f allocations, budget %d", got, budget)
	}
}
