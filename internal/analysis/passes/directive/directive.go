// Package directive validates crowdlint's own escape hatch so it cannot
// rot: every //crowdlint: comment anywhere in the module (test files
// included) must be a well-formed allow-directive that names real
// analyzers and carries a reason.
//
//	//crowdlint:allow determinism -- request-latency metric wants wall time
//
// Rejected: unknown verbs, unknown analyzer names, missing "--", and
// empty reasons. A directive that suppresses nothing is a lie in the
// source; this analyzer is the reason the other two can afford a
// liberal escape hatch.
package directive

import (
	"maps"
	"slices"
	"strings"

	"crowdpricing/internal/analysis"
)

// KnownAnalyzers is the set of names an allow-directive may reference.
// Registered by the suite at init time (the suite imports this package,
// not the other way round, to avoid a cycle).
var KnownAnalyzers = map[string]bool{}

// Analyzer is the directive validator.
var Analyzer = &analysis.Analyzer{
	Name: "directive",
	Doc: "validate //crowdlint:allow directives: well-formed, naming a real analyzer, " +
		"with a mandatory reason after --",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, d := range analysis.ParseDirectives(file) {
			if d.Problem != "" {
				pass.Reportf(d.Pos, "malformed crowdlint directive %q: %s", d.Raw, d.Problem)
				continue
			}
			for _, name := range d.Analyzers {
				if !KnownAnalyzers[name] {
					pass.Reportf(d.Pos, "allow-directive names unknown analyzer %q (known: %s)", name, knownList())
				}
			}
		}
	}
	return nil
}

func knownList() string {
	return strings.Join(slices.Sorted(maps.Keys(KnownAnalyzers)), ", ")
}
