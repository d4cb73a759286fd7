package main

import (
	"strings"
	"testing"
)

const fm = "../../testdata/customsbc.fm"

func TestAnalyses(t *testing.T) {
	for _, args := range [][]string{
		{"count", "-fm", fm},
		{"enumerate", "-fm", fm, "-limit", "3"},
		{"void", "-fm", fm},
		{"dead", "-fm", fm},
		{"core", "-fm", fm},
		{"valid", "-fm", fm, "-config", "memory,cpu@0,uart0"},
		{"partition", "-fm", fm, "-vms", "2"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestInvalidConfigFails(t *testing.T) {
	err := run([]string{"valid", "-fm", fm, "-config", "memory,cpu@0,cpu@1,uart0"})
	if err == nil {
		t.Error("both CPUs should be an invalid product")
	}
}

func TestValidRejectsUnknownFeature(t *testing.T) {
	err := run([]string{"valid", "-fm", fm, "-config", "memory,cpu@0,uart0,cpu@9"})
	if err == nil || !strings.Contains(err.Error(), `unknown feature "cpu@9"`) {
		t.Errorf("err = %v, want an unknown-feature error naming cpu@9", err)
	}
}

func TestInfeasiblePartition(t *testing.T) {
	if err := run([]string{"partition", "-fm", fm, "-vms", "3"}); err == nil {
		t.Error("3 VMs over 2 exclusive CPUs should be infeasible")
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"count"},
		{"frobnicate", "-fm", fm},
		{"valid", "-fm", fm},
		{"count", "-fm", "/does/not/exist.fm"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
