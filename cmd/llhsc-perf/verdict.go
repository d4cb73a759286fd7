package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// verdict is the part of a response a known answer pins down: the
// overall ok flag and the sorted, de-duplicated set of "<scope> <rule>"
// findings. For /check the scope is "allocation", a VM name, "platform"
// or "lifted:<family>"; for /lint it is "lint", "structural" or
// "semantic". Paths, messages and witnesses are left out on purpose: the
// known answers are worked out by hand from the rules, which fix which
// rule fires in which tree but not how the checker words it.
type verdict struct {
	OK       bool     `json:"ok"`
	Findings []string `json:"findings"`
}

func (v verdict) String() string {
	return fmt.Sprintf("ok=%v findings=%q", v.OK, v.Findings)
}

func (v verdict) equal(o verdict) bool {
	if v.OK != o.OK || len(v.Findings) != len(o.Findings) {
		return false
	}
	for i := range v.Findings {
		if v.Findings[i] != o.Findings[i] {
			return false
		}
	}
	return true
}

// newVerdict sorts and de-duplicates the findings.
func newVerdict(ok bool, findings []string) verdict {
	sort.Strings(findings)
	out := []string{}
	for i, f := range findings {
		if i == 0 || f != findings[i-1] {
			out = append(out, f)
		}
	}
	return verdict{OK: ok, Findings: out}
}

type ruleDoc struct {
	Rule string `json:"rule"`
}

// checkDoc and lintDoc decode only the verdict fields of a /check or
// /lint response; everything else (DTS text, artifacts, stats) is
// skipped without being stored.
type checkDoc struct {
	OK         bool      `json:"ok"`
	Allocation []ruleDoc `json:"allocation"`
	Lifted     []struct {
		Family    string  `json:"family"`
		Violation ruleDoc `json:"violation"`
	} `json:"lifted"`
	VMs []struct {
		Name       string    `json:"name"`
		Violations []ruleDoc `json:"violations"`
	} `json:"vms"`
	Platform struct {
		Violations []ruleDoc `json:"violations"`
	} `json:"platform"`
}

type lintDoc struct {
	OK         bool      `json:"ok"`
	Warnings   []string  `json:"warnings"`
	Structural []ruleDoc `json:"structural"`
	Semantic   []ruleDoc `json:"semantic"`
}

// verdictOf extracts the verdict from a response body of endpoint.
func verdictOf(endpoint string, body []byte) (verdict, error) {
	var findings []string
	add := func(scope string, rules []ruleDoc) {
		for _, r := range rules {
			findings = append(findings, scope+" "+r.Rule)
		}
	}
	switch endpoint {
	case "/check":
		var d checkDoc
		if err := json.Unmarshal(body, &d); err != nil {
			return verdict{}, fmt.Errorf("decoding /check response: %w", err)
		}
		add("allocation", d.Allocation)
		for _, f := range d.Lifted {
			findings = append(findings, "lifted:"+f.Family+" "+f.Violation.Rule)
		}
		for _, vm := range d.VMs {
			add(vm.Name, vm.Violations)
		}
		add("platform", d.Platform.Violations)
		return newVerdict(d.OK, findings), nil
	case "/lint":
		var d lintDoc
		if err := json.Unmarshal(body, &d); err != nil {
			return verdict{}, fmt.Errorf("decoding /lint response: %w", err)
		}
		for _, w := range d.Warnings {
			findings = append(findings, "lint "+warningRule(w))
		}
		add("structural", d.Structural)
		add("semantic", d.Semantic)
		return newVerdict(d.OK, findings), nil
	}
	return verdict{}, fmt.Errorf("no verdict for endpoint %q", endpoint)
}

// warningRule takes the rule out of a dtc-style warning line,
// "<path>: <message> [<rule>]".
func warningRule(w string) string {
	open := strings.LastIndexByte(w, '[')
	if open < 0 || !strings.HasSuffix(w, "]") {
		return w
	}
	return w[open+1 : len(w)-1]
}
