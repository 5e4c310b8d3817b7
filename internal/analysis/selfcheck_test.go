package analysis_test

import (
	"testing"

	"crowdpricing/internal/analysis/suite"
)

// TestSuiteCleanOnRepository is the dogfood gate: the crowdlint suite must
// run clean over this repository itself, test files included. A failure
// here means either a real invariant violation crept in or an analyzer
// grew a false positive — both block the merge, by design. It runs the
// same function as cmd/crowdlint.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short mode")
	}
	diags, err := suite.Check("../..", "./...")
	if err != nil {
		t.Fatalf("checking repository: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
