// Package analysistest runs an analyzer over a golden mini-module and
// checks its diagnostics against `// want "regex"` comments in the
// sources — the same contract as golang.org/x/tools' analysistest,
// rebuilt on the repo's own loader so the suite stays dependency-free.
//
// Each testdata directory is a self-contained module whose go.mod chooses
// the module path, and therefore which scope tier the analyzer applies —
// a golden file claiming to be crowdpricing/internal/core is checked
// strictly, one claiming example.com/outside must produce nothing.
//
// A want comment names every diagnostic expected on its line:
//
//	for k := range m { // want `map iteration order is random`
//
// Both `...` and "..." quoting are accepted; the payload is a regexp
// matched against the diagnostic message. Diagnostics with no matching
// want, and wants with no matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crowdpricing/internal/analysis"
	"crowdpricing/internal/analysis/load"
)

// Run loads the module rooted at dir and applies the analyzer to every
// package in it, test variants included, comparing diagnostics against
// want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := load.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	for _, pkg := range pkgs {
		checkPackage(t, pkg, a)
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

func checkPackage(t *testing.T, pkg *load.Package, a *analysis.Analyzer) {
	t.Helper()
	wants := collectWants(t, pkg)
	diags, err := analysis.RunPackage(pkg.Fset, pkg.Syntax, pkg.Types, pkg.Info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", pkg.PkgPath, err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: want %q: no matching diagnostic", key, exp.rx)
			}
		}
	}
}

// collectWants extracts // want comments from every file of the package,
// keyed by "filename:line".
func collectWants(t *testing.T, pkg *load.Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, text) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	return wants
}

// wantToken matches one quoted pattern: backtick-raw or double-quoted
// with escapes.
var wantToken = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for _, tok := range wantToken.FindAllString(s, -1) {
		pat, err := strconv.Unquote(tok)
		if err != nil {
			t.Fatalf("%s: bad want token %s: %v", pos, tok, err)
		}
		out = append(out, pat)
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no quoted pattern", pos)
	}
	return out
}
