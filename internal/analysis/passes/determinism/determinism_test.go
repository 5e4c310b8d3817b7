package determinism_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crowdpricing/internal/analysis/analysistest"
	"crowdpricing/internal/analysis/passes/determinism"
)

func TestStrictTier(t *testing.T) {
	analysistest.Run(t, "testdata/strict", determinism.Analyzer)
}

func TestReachabilityTier(t *testing.T) {
	analysistest.Run(t, "testdata/reach", determinism.Analyzer)
}

func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata/outofscope", determinism.Analyzer)
}

// TestCommandsAndExamplesInScope requires every directory under cmd/ and
// examples/ to be a strict package, except the two commands that read the
// wall clock by design, so a new command or example cannot skip the rules
// unnoticed. Every strict package must also still exist.
func TestCommandsAndExamplesInScope(t *testing.T) {
	const root = "../../../.."
	exempt := map[string]bool{
		"crowdpricing/cmd/priced":    true, // serves requests and times them
		"crowdpricing/cmd/loadbench": true, // paces requests on the wall clock
	}
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			pkg := "crowdpricing/" + parent + "/" + e.Name()
			switch strict := slices.Contains(determinism.StrictPackages, pkg); {
			case strict && exempt[pkg]:
				t.Errorf("%s is both strict and exempt", pkg)
			case !strict && !exempt[pkg]:
				t.Errorf("%s is neither in StrictPackages nor exempt", pkg)
			}
		}
	}
	for _, pkg := range determinism.StrictPackages {
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "crowdpricing/"))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("strict package %s has no directory %s", pkg, dir)
		}
	}
}
