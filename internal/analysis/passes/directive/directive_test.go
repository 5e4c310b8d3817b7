package directive_test

import (
	"strings"
	"testing"

	"crowdpricing/internal/analysis"
	"crowdpricing/internal/analysis/load"
	"crowdpricing/internal/analysis/passes/directive"

	// Registers the real analyzer names in directive.KnownAnalyzers.
	_ "crowdpricing/internal/analysis/suite"
)

// The golden module cannot carry // want comments (a want cannot trail a
// line comment), so the expectations live here: one entry per bad
// directive in dirs.go, matched by message substring in diagnostic order.
func TestDirectiveValidation(t *testing.T) {
	pkgs, err := load.Load("testdata/dirs", load.Options{}, "./...")
	if err != nil {
		t.Fatalf("loading golden module: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := analysis.RunPackage(pkg.Fset, pkg.Syntax, pkg.Types, pkg.Info, []*analysis.Analyzer{directive.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`unknown analyzer "nosuchanalyzer"`,
		`missing "-- reason"`,
		`empty reason after --`,
		`unknown crowdlint directive verb deny`,
		`empty analyzer name`,
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

func TestKnownAnalyzersRegistered(t *testing.T) {
	for _, name := range []string{"determinism", "locksafe", "directive"} {
		if !directive.KnownAnalyzers[name] {
			t.Errorf("suite did not register analyzer %q", name)
		}
	}
}
