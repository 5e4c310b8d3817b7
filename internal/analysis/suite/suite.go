// Package suite assembles the crowdlint analyzer set and runs it.
// cmd/crowdlint and the repository self-check test both call Check, so an
// analyzer added here is checked by the command and by the regression
// gate alike.
package suite

import (
	"fmt"
	"strings"

	"crowdpricing/internal/analysis"
	"crowdpricing/internal/analysis/load"
	"crowdpricing/internal/analysis/passes/determinism"
	"crowdpricing/internal/analysis/passes/directive"
	"crowdpricing/internal/analysis/passes/locksafe"
)

// Analyzers is the full crowdlint suite.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	locksafe.Analyzer,
	directive.Analyzer,
}

func init() {
	// The directive analyzer validates allow-directives against the real
	// analyzer set; registering here keeps the two in lockstep.
	for _, a := range Analyzers {
		directive.KnownAnalyzers[a.Name] = true
	}
}

// Check loads the packages matching patterns, resolved relative to dir,
// together with their tests, and runs Analyzers on every one. It returns
// each finding once, package by package, each package's sorted by
// position. A pattern set that matches no package is an error, so a
// mistyped pattern cannot pass as a clean run.
func Check(dir string, patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	var diags []analysis.Diagnostic
	seen := make(map[analysis.Diagnostic]bool)
	for _, pkg := range pkgs {
		found, err := analysis.RunPackage(pkg.Fset, pkg.Syntax, pkg.Types, pkg.Info, Analyzers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.PkgPath, err)
		}
		// A package's test variant holds its non-test files again, so a
		// finding there comes from both.
		for _, d := range found {
			if !seen[d] {
				seen[d] = true
				diags = append(diags, d)
			}
		}
	}
	return diags, nil
}
