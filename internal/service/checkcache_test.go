package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"llhsc/internal/bench"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
)

// syntheticLineRequest is the 8-CPU, 8-UART synthetic line of
// bench.SyntheticProductLine as a /check body selecting 8 VMs: the core
// through Tree.Print, the model through Model.Format and the removal
// deltas in Listing-4 syntax.
func syntheticLineRequest(t testing.TB) CheckRequest {
	t.Helper()
	p, err := bench.SyntheticProductLine(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var deltas strings.Builder
	for _, d := range p.Deltas.Deltas {
		fmt.Fprintf(&deltas, "delta %s", d.Name)
		if d.When != nil {
			fmt.Fprintf(&deltas, " when %s", d.When)
		}
		deltas.WriteString(" {\n")
		for _, op := range d.Ops {
			if op.Kind != delta.OpRemovesNode {
				t.Fatalf("delta %s: cannot render a %v operation", d.Name, op.Kind)
			}
			fmt.Fprintf(&deltas, "\tremoves node %s;\n", op.Target)
		}
		deltas.WriteString("}\n")
	}
	req := CheckRequest{CoreDTS: p.Core.Print(), Deltas: deltas.String(), FeatureModel: p.Model.Format()}
	for _, cfg := range p.VMConfigs {
		req.VMs = append(req.VMs, cfg.Sorted())
	}
	return req
}

// withoutStats drops the reply's stats, the only part that tells a
// cache hit from a miss, and keeps every other field's bytes.
func withoutStats(t testing.TB, reply []byte) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(reply, &fields); err != nil {
		t.Fatalf("reply is not a JSON object: %v\n%s", err, reply)
	}
	delete(fields, "stats")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckCacheRepliesIdentically checks that a reply served from the
// check cache, cold or warm, equals the reply of a service without one,
// stats aside, for the running example and an 8-VM synthetic line in
// both modes.
func TestCheckCacheRepliesIdentically(t *testing.T) {
	for name, req := range map[string]CheckRequest{
		"example": runningExampleRequest(t), "synthetic": syntheticLineRequest(t),
	} {
		for _, mode := range []string{"enumerate", "lifted"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				req := req
				req.Mode = mode
				body := marshalBody(t, req)
				status, want := postCheck(t, NewHandler(Options{}), body)
				if status != http.StatusOK {
					t.Fatalf("no cache: status %d: %s", status, want)
				}
				want = withoutStats(t, want)
				svc, err := NewService(Options{CacheSize: 64})
				if err != nil {
					t.Fatal(err)
				}
				for _, run := range []string{"cold", "warm"} {
					status, got := postCheck(t, svc, body)
					if status != http.StatusOK || !bytes.Equal(withoutStats(t, got), want) {
						t.Errorf("%s cache answered %d:\n%s\nno cache answered:\n%s", run, status, got, want)
					}
				}
				if st := svc.srv.cache.Stats(); st.Hits == 0 {
					t.Errorf("the warm run hit nothing: %+v", st)
				}
			})
		}
	}
}

// TestCheckCacheKeysEveryDerivationInput sends the running example to a
// service with a check cache, then the same body with one derivation
// input changed: every product lookup of the second request must miss.
// The inputs are the front end's (core, includes, defines, the
// preprocess switch, deltas, feature model), the VM selection, the
// schema set, the mode and the verdict-changing knobs.
func TestCheckCacheKeysEveryDerivationInput(t *testing.T) {
	base := runningExampleRequest(t)
	base.Includes = map[string]string{"cpus.dtsi": runningexample.CPUsDTSI, "extra.dtsi": "/ { };"}
	base.Defines = map[string]string{"UNUSED": "1"}
	// Each VM gives up its uart; the union changes with them, so no
	// product of the base body is derived again.
	otherVMs := [][]string{
		{"memory", "cpu@0", "veth0"},
		{"memory", "cpu@1", "veth1"},
	}
	variants := map[string]func(*server, *CheckRequest){
		"core":          func(_ *server, r *CheckRequest) { r.CoreDTS += "\n" },
		"include":       func(_ *server, r *CheckRequest) { r.Includes["extra.dtsi"] = "/ { x; };" },
		"define":        func(_ *server, r *CheckRequest) { r.Defines["UNUSED"] = "2" },
		"preprocess":    func(_ *server, r *CheckRequest) { r.Preprocess = true },
		"deltas":        func(_ *server, r *CheckRequest) { r.Deltas += "\n" },
		"feature model": func(_ *server, r *CheckRequest) { r.FeatureModel += "\n" },
		"vm selection":  func(_ *server, r *CheckRequest) { r.VMs = otherVMs },
		"mode":          func(_ *server, r *CheckRequest) { r.Mode = "lifted" },
		"schema set": func(s *server, _ *CheckRequest) {
			s.schemas = &schema.Set{Schemas: s.schemas.Schemas[1:]}
		},
		"max conflicts":   func(s *server, _ *CheckRequest) { s.opts.Limits.Solver.MaxConflicts = 1 << 20 },
		"max learnt lits": func(s *server, _ *CheckRequest) { s.opts.Limits.Solver.MaxLearntLits = 1 << 20 },
		"max delta ops":   func(s *server, _ *CheckRequest) { s.opts.Limits.MaxDeltaOps = 1 << 20 },
	}
	for name, edit := range variants {
		t.Run(name, func(t *testing.T) {
			svc, err := NewService(Options{CacheSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			req := base
			if status, reply := postCheck(t, svc, marshalBody(t, req)); status != http.StatusOK {
				t.Fatalf("base: status %d: %s", status, reply)
			}
			before := svc.srv.cache.Stats()
			req.Includes = map[string]string{"cpus.dtsi": base.Includes["cpus.dtsi"], "extra.dtsi": base.Includes["extra.dtsi"]}
			req.Defines = map[string]string{"UNUSED": "1"}
			edit(svc.srv, &req)
			if status, reply := postCheck(t, svc, marshalBody(t, req)); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, reply)
			}
			after := svc.srv.cache.Stats()
			if after.Hits != before.Hits || after.Misses == before.Misses {
				t.Errorf("the changed body hit %d entries and missed %d, want no hits",
					after.Hits-before.Hits, after.Misses-before.Misses)
			}
		})
	}
}

// TestCheckCacheStoresNoErrors checks that a body stopped by a limit or
// by a structural delta error stores nothing in the check cache and is
// answered the same way every time it is sent.
func TestCheckCacheStoresNoErrors(t *testing.T) {
	example := runningExampleRequest(t)
	broken := example
	broken.Deltas += "\ndelta d_broken when memory {\n\tmodifies no_such_node@0 {\n\t\tstatus = \"okay\";\n\t}\n}\n"
	for name, c := range map[string]struct {
		opts Options
		req  CheckRequest
		want string // in the error message
	}{
		"step cap":         {Options{CacheSize: 64, Limits: core.Limits{MaxDeltaOps: 1}}, example, "check stopped"},
		"structural delta": {Options{CacheSize: 64}, broken, "no_such_node@0"},
	} {
		t.Run(name, func(t *testing.T) {
			svc, err := NewService(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			body := marshalBody(t, c.req)
			status, first := postCheck(t, svc, body)
			if status == http.StatusOK {
				t.Fatalf("the body passed: %s", first)
			}
			if !strings.Contains(string(first), c.want) {
				t.Errorf("the reply does not say %q:\n%s", c.want, first)
			}
			if st := svc.srv.cache.Stats(); st.Entries != 0 {
				t.Errorf("a failed check left %d cache entries", st.Entries)
			}
			if status2, second := postCheck(t, svc, body); status2 != status || !bytes.Equal(second, first) {
				t.Errorf("resent, the body answered %d:\n%s\nfirst:\n%s", status2, second, first)
			}
		})
	}
}
