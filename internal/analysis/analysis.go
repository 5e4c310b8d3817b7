// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: an
// [Analyzer] runs over one type-checked package at a time through a [Pass]
// and reports position-anchored diagnostics.
//
// The repo's correctness story leans on invariants the compiler cannot see
// — bit-identical policies by seed, stable Fingerprint() cache keys, O(1)
// quotes that never block under a campaign mutex. The analyzers under
// passes/ turn those invariants into compile-time checks; suite.Check runs
// them over source the load package type-checks, for cmd/crowdlint and for
// the repository self-check test. The framework is intentionally
// API-compatible in spirit with x/tools (Analyzer/Pass/Reportf,
// analysistest golden files) so the suite can migrate onto the real module
// if the dependency ever lands; it is hand-rolled here because the build
// is dependency-free by policy.
//
// # Suppression directives
//
// Every analyzer honors an explicit, auditable escape hatch:
//
//	//crowdlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the offending line, on the line directly above it, or in the
// doc comment of the enclosing function (which suppresses the analyzer for
// the whole function). The reason is mandatory; the directive analyzer
// rejects directives that are malformed, give no reason, or name an
// analyzer that does not exist, so the escape hatch cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects the Pass's package and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //crowdlint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is the analyzer's one-paragraph description, shown by
	// `crowdlint -list`.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass connects one Analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, parsed with comments (directives live
	// in the comments).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	suppress *suppressIndex
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an allow-directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.covers(p.Analyzer.Name, position, pos) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// TestFile reports whether the file containing pos is a _test.go file.
// Most analyzers skip test files: tests legitimately use wall clocks and
// ad-hoc iteration, and the invariants under enforcement are about
// production paths.
func (p *Pass) TestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgPath returns the package's import path with any test-variant suffix
// ("pkg [pkg.test]") stripped, so scope matching treats a package and its
// internal-test augmentation identically.
func (p *Pass) PkgPath() string { return NormalizePkgPath(p.Pkg.Path()) }

// NormalizePkgPath strips the " [pkg.test]" suffix the build system
// appends to test-variant import paths.
func NormalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// InScope reports whether pkgpath is one of the listed package paths.
func InScope(pkgpath string, scope []string) bool {
	pkgpath = NormalizePkgPath(pkgpath)
	for _, s := range scope {
		if pkgpath == s {
			return true
		}
	}
	return false
}

// Callee resolves the function or method a call expression invokes, or nil
// when the callee is not a named function (a function value, a conversion,
// a built-in).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// RunPackage applies each analyzer to one type-checked package and returns
// the surviving (non-suppressed) diagnostics sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	idx := buildSuppressIndex(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			suppress: idx,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
