package suite_test

import (
	"strings"
	"testing"

	"crowdpricing/internal/analysis/suite"
)

// The directive golden module doubles as a fixture here: dirs.go holds the
// five bad directives TestDirectiveValidation lists, and dirs_test.go gives
// the package a test variant that holds dirs.go again.
const dirs = "../passes/directive/testdata/dirs"

// TestCheckReportsEachFindingOnce: Check loads the package twice, as itself
// and as its test variant, and reports each finding in dirs.go once.
func TestCheckReportsEachFindingOnce(t *testing.T) {
	diags, err := suite.Check(dirs, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 5 {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want 5", len(diags))
	}
}

// TestCheckNoPackages: patterns that match no package are an error, not a
// clean run.
func TestCheckNoPackages(t *testing.T) {
	_, err := suite.Check(dirs, "example.com/nosuch/...")
	if err == nil || !strings.Contains(err.Error(), "no packages match") {
		t.Fatalf("err = %v, want no packages match", err)
	}
}
