package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llhsc/internal/runningexample"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	var out map[string]interface{}
	resp := getJSON(t, srv.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, out)
	}
	if _, ok := out["checkCache"]; ok {
		t.Error("healthz reports cache stats although no cache is configured")
	}
}

func TestExampleRoundTripsThroughCheck(t *testing.T) {
	// The artifact flow: GET /example, POST it to /check, expect a
	// passing report with the Listing 3/6 artifacts.
	srv := newServer(t)
	var req CheckRequest
	if resp := getJSON(t, srv.URL+"/example", &req); resp.StatusCode != http.StatusOK {
		t.Fatalf("/example status %d", resp.StatusCode)
	}
	if req.CoreDTS == "" || len(req.VMs) != 2 {
		t.Fatalf("example request incomplete: %+v", req)
	}

	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if !out.OK {
		t.Fatalf("running example rejected: %+v", out)
	}
	if len(out.VMs) != 2 {
		t.Fatalf("VMs = %d", len(out.VMs))
	}
	if !strings.Contains(out.PlatformC, ".cpu_num = 2") {
		t.Error("platform C missing")
	}
	if !strings.Contains(out.ConfigC, ".vmlist_size = 2") {
		t.Error("config C missing")
	}
	if !strings.Contains(out.JailhouseRootC, "JAILHOUSE_SYSTEM_SIGNATURE") {
		t.Error("jailhouse root missing")
	}
	if len(out.JailhouseCellsC) != 2 {
		t.Error("jailhouse cells missing")
	}
}

func TestCheckReportsViolationsWithBlame(t *testing.T) {
	srv := newServer(t)
	var req CheckRequest
	getJSON(t, srv.URL+"/example", &req)
	// inject the clash delta (Section I-A through the product line)
	req.Deltas += `
delta clash after d6 when uart1 && (veth0 || veth1) {
    modifies uart@30000000 {
        reg = <0x60000000 0x1000>;
    }
}
`
	var out CheckResponse
	resp := postJSON(t, srv.URL+"/check", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if out.OK {
		t.Fatal("clash not detected")
	}
	blamed := false
	for _, vm := range out.VMs {
		for _, v := range vm.Violations {
			if v.Rule == "semantic:overlap" && v.Delta == "clash" {
				blamed = true
			}
		}
	}
	if !blamed {
		t.Errorf("no violation blamed on delta 'clash': %+v", out.VMs)
	}
	if out.ConfigC != "" {
		t.Error("artifacts must not be generated on failure")
	}
}

// TestCheckLiftedMode exercises the per-request mode override: the
// clean running example passes in lifted mode with lifted metadata in
// the stats (its 12 products, no session), and so does the same line
// past 64 products (queries in one session); the clash corpus fails
// with findings carrying witness configurations; an unknown mode
// answers 400.
func TestCheckLiftedMode(t *testing.T) {
	srv := newServer(t)
	var req CheckRequest
	getJSON(t, srv.URL+"/example", &req)
	req.Mode = "lifted"

	var out CheckResponse
	if resp := postJSON(t, srv.URL+"/check", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d", resp.StatusCode)
	}
	if !out.OK {
		t.Fatalf("running example rejected in lifted mode: %+v", out.Lifted)
	}
	if len(out.Lifted) != 0 {
		t.Errorf("clean line produced lifted findings: %+v", out.Lifted)
	}
	if out.Stats == nil || out.Stats.Lifted == nil {
		t.Fatal("lifted-mode response missing lifted stats")
	}
	if l := out.Stats.Lifted; l.Products != runningexample.ProductCount || l.Queries != 0 || l.Sessions != 0 {
		t.Errorf("lifted stats report %d products, %d queries, %d sessions; want %d, 0, 0",
			l.Products, l.Queries, l.Sessions, runningexample.ProductCount)
	}
	if out.ConfigC == "" {
		t.Error("passing lifted run generated no artifacts")
	}

	t.Run("past 64 products", func(t *testing.T) {
		spare, err := runningexample.SpareModel(3)
		if err != nil {
			t.Fatal(err)
		}
		wide := req
		wide.FeatureModel = spare.Format()
		var out CheckResponse
		if resp := postJSON(t, srv.URL+"/check", wide, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("/check status %d", resp.StatusCode)
		}
		if !out.OK {
			t.Fatalf("96-product line rejected in lifted mode: %+v", out.Lifted)
		}
		if out.Stats == nil || out.Stats.Lifted == nil {
			t.Fatal("lifted-mode response missing lifted stats")
		}
		if out.Stats.Lifted.Queries == 0 {
			t.Error("lifted stats report no solver queries")
		}
		if out.Stats.Lifted.Products != 0 || out.Stats.Lifted.Sessions != 1 {
			t.Errorf("lifted stats report %d products in %d sessions, want 0 in 1",
				out.Stats.Lifted.Products, out.Stats.Lifted.Sessions)
		}
	})

	t.Run("findings with witnesses", func(t *testing.T) {
		clash := req
		clash.Deltas += `
delta clash after d6 when uart1 && (veth0 || veth1) {
    modifies uart@30000000 {
        reg = <0x60000000 0x1000>;
    }
}
`
		var out CheckResponse
		if resp := postJSON(t, srv.URL+"/check", clash, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("/check status %d", resp.StatusCode)
		}
		if out.OK {
			t.Fatal("clash not detected in lifted mode")
		}
		if len(out.Lifted) == 0 {
			t.Fatal("no lifted findings on the clash corpus")
		}
		blamed := false
		for _, f := range out.Lifted {
			if len(f.Config) == 0 {
				t.Errorf("finding without witness configuration: %+v", f)
			}
			if f.Violation.Rule == "semantic:overlap" && f.Violation.Delta == "clash" {
				blamed = true
			}
		}
		if !blamed {
			t.Errorf("no lifted finding blamed on delta 'clash': %+v", out.Lifted)
		}
		if out.ConfigC != "" {
			t.Error("artifacts must not be generated on failure")
		}
	})

	t.Run("unknown mode", func(t *testing.T) {
		bad := req
		bad.Mode = "family"
		var out errorResponse
		resp := postJSON(t, srv.URL+"/check", bad, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
		if !strings.Contains(out.Error, "enumerate or lifted") {
			t.Errorf("error does not list valid modes: %q", out.Error)
		}
	})
}

func TestCheckInputValidation(t *testing.T) {
	srv := newServer(t)

	t.Run("empty body fields", func(t *testing.T) {
		var out errorResponse
		resp := postJSON(t, srv.URL+"/check", CheckRequest{}, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})

	t.Run("bad JSON", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/check", "application/json",
			strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})

	t.Run("GET not allowed", func(t *testing.T) {
		resp := getJSON(t, srv.URL+"/check", nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})

	t.Run("broken DTS", func(t *testing.T) {
		var req CheckRequest
		getJSON(t, srv.URL+"/example", &req)
		req.CoreDTS = "/ { broken"
		var out errorResponse
		resp := postJSON(t, srv.URL+"/check", req, &out)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status = %d (%+v)", resp.StatusCode, out)
		}
	})

	t.Run("unknown feature", func(t *testing.T) {
		var req CheckRequest
		getJSON(t, srv.URL+"/example", &req)
		req.VMs = [][]string{{"ghost-feature"}}
		var out errorResponse
		resp := postJSON(t, srv.URL+"/check", req, &out)
		if resp.StatusCode != http.StatusUnprocessableEntity ||
			!strings.Contains(out.Error, "ghost-feature") {
			t.Errorf("status = %d err = %q", resp.StatusCode, out.Error)
		}
	})
}

// TestLintPreprocessed: the lint endpoint must run the cpp pipeline
// when asked — #include against the Includes map, -D-style Defines —
// and blame preprocessing errors on the original line.
func TestLintPreprocessed(t *testing.T) {
	srv := newServer(t)

	req := LintRequest{
		DTS: `/dts-v1/;
#include "regs.h"
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	uart@9000000 {
		compatible = "ns16550a";
		reg = <UART_BASE 0x1000>;
#ifdef WITH_MARKER
		marker;
#endif
	};
};
`,
		Includes:   map[string]string{"regs.h": "#define UART_BASE 0x9000000\n"},
		Defines:    map[string]string{"WITH_MARKER": "1"},
		Preprocess: true,
	}
	var out LintResponse
	if resp := postJSON(t, srv.URL+"/lint", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if !out.OK {
		t.Errorf("preprocessed DTS flagged: %+v", out)
	}

	// Without Preprocess (and with no Defines) the same body must be
	// rejected: #include is not plain DTS syntax.
	plain := req
	plain.Preprocess = false
	plain.Defines = nil
	var errOut errorResponse
	if resp := postJSON(t, srv.URL+"/lint", plain, &errOut); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unpreprocessed status = %d, want 422", resp.StatusCode)
	}

	// A preprocessing error (unterminated #ifdef) is a 422 naming the
	// original input line.
	bad := LintRequest{DTS: "/dts-v1/;\n#ifdef NOPE\n/ { };\n", Preprocess: true}
	resp := postJSON(t, srv.URL+"/lint", bad, &errOut)
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(errOut.Error, "#ifdef") {
		t.Errorf("status = %d err = %q", resp.StatusCode, errOut.Error)
	}
}

// TestCheckPreprocessed: /check accepts a cpp-preprocessed core module;
// Defines alone switch preprocessing on.
func TestCheckPreprocessed(t *testing.T) {
	srv := newServer(t)
	req := CheckRequest{
		CoreDTS: `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			device_type = "cpu";
			compatible = "arm,cortex-a53";
			reg = <0>;
		};
	};
	memory@40000000 {
		device_type = "memory";
		reg = <MEM_BASE 0x1000000>;
	};
};
`,
		Defines:      map[string]string{"MEM_BASE": "0x40000000"},
		Deltas:       "delta d1 when board {\n    modifies / {\n        marker = <1>;\n    }\n}\n",
		FeatureModel: "feature board {\n    feature memory mandatory\n}\n",
		VMs:          [][]string{{"memory"}},
	}
	var out map[string]interface{}
	if resp := postJSON(t, srv.URL+"/check", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d: %+v", resp.StatusCode, out)
	}
	if ok, _ := out["ok"].(bool); !ok {
		t.Errorf("preprocessed check failed: %+v", out)
	}
}

func TestLintEndpoint(t *testing.T) {
	srv := newServer(t)

	clean := LintRequest{DTS: `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x1000>;
	};
};
`, Semantic: true}
	var out LintResponse
	if resp := postJSON(t, srv.URL+"/lint", clean, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.OK {
		t.Errorf("clean DTS flagged: %+v", out)
	}

	dirty := LintRequest{DTS: `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x40000000 0x20000000>;
	};
	uart@40000000 { compatible = "ns16550a"; reg = <0x40000000 0x1000>; };
};
`, Semantic: true}
	out = LintResponse{}
	postJSON(t, srv.URL+"/lint", dirty, &out)
	if out.OK || len(out.Semantic) == 0 {
		t.Errorf("overlap not reported: %+v", out)
	}

	// structural-only run must accept the same input
	dirty.Semantic = false
	out = LintResponse{}
	postJSON(t, srv.URL+"/lint", dirty, &out)
	if !out.OK {
		t.Errorf("structural-only lint should accept the overlap: %+v", out)
	}

	// bad input
	var errOut errorResponse
	resp := postJSON(t, srv.URL+"/lint", LintRequest{}, &errOut)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty dts status = %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/lint", LintRequest{DTS: "/ {"}, &errOut)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken dts status = %d", resp.StatusCode)
	}
}
