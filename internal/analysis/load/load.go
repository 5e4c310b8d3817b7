// Package load is a minimal, dependency-free substitute for
// golang.org/x/tools/go/packages: it shells out to `go list -json -deps`
// for build metadata, then parses and type-checks every package from
// source in dependency order. Only the standard toolchain is required —
// no export data, no network, no module downloads (the repository and its
// analyzer testdata import nothing outside the standard library).
//
// suite.Check (which cmd/crowdlint and the repository self-check test
// call) and the analysistest golden harness all load through this package.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// A Package is one type-checked target package (a package named by the
// Load patterns, not a dependency).
type Package struct {
	// PkgPath is the import path as the build system reports it; test
	// variants keep their " [pkg.test]" suffix.
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Options tunes Load.
type Options struct {
	// Tests includes each package's test variants (the augmented package
	// with its _test.go files and the external _test package) among the
	// targets. Synthesized test-main packages are never returned.
	Tests bool
}

// Load resolves patterns relative to dir and returns the type-checked
// target packages in build order. Any parse or type error in a target or a
// dependency fails the load: the analyzers assume well-typed input.
func Load(dir string, opts Options, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := []string{"list", "-json", "-deps"}
	if opts.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// The repository is pure Go: with cgo off, the toolchain selects
	// cgo-free variants of the few standard packages (net, os/user) that
	// would otherwise list C sources this loader cannot type-check.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	typesByPath := map[string]*types.Package{"unsafe": types.Unsafe}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	var targets []*Package
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		// Skip synthesized test-main packages; their generated sources live
		// in the build cache and hold nothing worth analyzing.
		if strings.HasSuffix(lp.ImportPath, ".test") && lp.Name == "main" {
			continue
		}
		target := !lp.DepOnly
		mode := parser.SkipObjectResolution
		if target {
			mode |= parser.ParseComments
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			path := name
			if !strings.HasPrefix(path, "/") {
				path = lp.Dir + "/" + name
			}
			f, err := parser.ParseFile(fset, path, nil, mode)
			if err != nil {
				return nil, fmt.Errorf("load: %s: %v", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		var info *types.Info
		if target {
			info = &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
				Implicits:  make(map[ast.Node]types.Object),
				Scopes:     make(map[ast.Node]*types.Scope),
			}
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := lp.ImportMap[path]; ok {
					path = mapped
				}
				if pkg, ok := typesByPath[path]; ok {
					return pkg, nil
				}
				return nil, fmt.Errorf("package %q not in the dependency closure", path)
			}),
			Sizes: sizes,
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %v", lp.ImportPath, err)
		}
		typesByPath[lp.ImportPath] = pkg
		if target {
			targets = append(targets, &Package{
				PkgPath: lp.ImportPath,
				Dir:     lp.Dir,
				Fset:    fset,
				Syntax:  files,
				Types:   pkg,
				Info:    info,
			})
		}
	}
	return targets, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
