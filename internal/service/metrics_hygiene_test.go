// Metrics hygiene: every family a fully configured service registers
// must follow the Prometheus data-model naming rules, carry non-empty
// help text, and render byte-deterministically — a scrape target whose
// output reorders between scrapes breaks diffing and recording rules.
package service

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"llhsc/internal/obs"
)

// metricNameRE is the Prometheus metric-name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// fullRegistry builds a service with every metrics-registering feature
// enabled, so the hygiene checks cover the complete family set:
// service, pipeline, check-cache, build info and the
// deep-diagnostics histograms.
func fullRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	if _, err := NewService(Options{
		CacheSize:  8,
		Registry:   reg,
		FlightSize: 4,
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestMetricFamiliesWellFormed(t *testing.T) {
	fams := fullRegistry(t).Families()
	if len(fams) == 0 {
		t.Fatal("no metric families registered")
	}
	seen := make(map[string]bool)
	for _, f := range fams {
		if !metricNameRE.MatchString(f.Name) {
			t.Errorf("family %q violates the Prometheus naming grammar", f.Name)
		}
		if !strings.HasPrefix(f.Name, "llhsc_") {
			t.Errorf("family %q lacks the llhsc_ namespace prefix", f.Name)
		}
		if strings.TrimSpace(f.Help) == "" {
			t.Errorf("family %q has empty help text", f.Name)
		}
		if seen[f.Name] {
			t.Errorf("family %q registered twice", f.Name)
		}
		seen[f.Name] = true
	}
	// The families this PR introduces must all be present.
	for _, want := range []string{
		"llhsc_check_seconds",
		"llhsc_checkcache_lookup_seconds",
		"llhsc_build_info",
		"llhsc_frontend_memo_hits_total",
		"llhsc_frontend_memo_misses_total",
	} {
		if !seen[want] {
			t.Errorf("family %q missing from a fully configured service", want)
		}
	}
}

// TestWritePrometheusDeterministic pins that two renders of the same
// registry produce identical bytes (stable family and label ordering).
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := fullRegistry(t)
	var a, b bytes.Buffer
	reg.WritePrometheus(&a)
	reg.WritePrometheus(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two renders differ:\n--- first ---\n%s\n--- second ---\n%s", a.String(), b.String())
	}
	// Every HELP line must belong to a family the registry reports, and
	// appear in sorted order.
	var helps []string
	for _, line := range strings.Split(a.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helps = append(helps, strings.Fields(line)[2])
		}
	}
	if len(helps) == 0 {
		t.Fatal("exposition has no HELP lines")
	}
	for i := 1; i < len(helps); i++ {
		if helps[i] < helps[i-1] {
			t.Errorf("families out of order: %q after %q", helps[i], helps[i-1])
		}
	}
}
