package main

import (
	"strings"
	"testing"

	"easydram/internal/experiments"
)

func quickOpt() experiments.Options {
	opt := experiments.Quick()
	opt.Sizes = []int{32 << 10}
	opt.LatSizesKiB = []int{64}
	opt.HeatRows = 96
	return opt
}

// TestRunDispatch runs every catalog entry through the command's dispatch.
func TestRunDispatch(t *testing.T) {
	for _, e := range experiments.Catalog() {
		t.Run(e.Name, func(t *testing.T) {
			if err := run(e.Name, quickOpt()); err != nil {
				t.Fatalf("run(%q): %v", e.Name, err)
			}
		})
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments.Catalog() {
		if seen[e.Name] {
			t.Errorf("experiment name %q is not unique (or shadows all)", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestRunUnknownExperiment checks that an unknown name — including fig14,
// whose table now prints with fig13 — fails with the list of valid names.
func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "fig14"} {
		err := run(name, quickOpt())
		if err == nil {
			t.Fatalf("run(%q) must error", name)
		}
		for _, e := range experiments.Catalog() {
			if !strings.Contains(err.Error(), e.Name) {
				t.Errorf("run(%q) error %q does not list %q", name, err, e.Name)
			}
		}
	}
}

// TestRunWithFaultFlags exercises the -faults/-mitigation/-v path: every
// kernel runs under default injection with a mitigation policy armed, and
// the verbose reporter fires without disturbing the run.
func TestRunWithFaultFlags(t *testing.T) {
	opt := quickOpt()
	opt.Faults = true
	opt.Mitigation = "trr"
	opt.Verbose = true
	if err := run("table1", opt); err != nil {
		t.Fatalf("run(table1) with fault flags: %v", err)
	}
}
