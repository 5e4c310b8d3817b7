package load_test

import (
	"strings"
	"testing"

	"crowdpricing/internal/analysis/load"
)

// The determinism golden modules double as loader fixtures: tiny
// self-contained modules with stdlib-only imports.
func TestLoadGoldenModule(t *testing.T) {
	pkgs, err := load.Load("../passes/determinism/testdata/strict", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "crowdpricing/internal/core" {
		t.Errorf("PkgPath = %q, want crowdpricing/internal/core", pkg.PkgPath)
	}
	if len(pkg.Syntax) == 0 {
		t.Error("no parsed files")
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("package not type-checked")
	}
	// Comments must be preserved: the analyzers read directives from them.
	commented := false
	for _, f := range pkg.Syntax {
		if len(f.Comments) > 0 {
			commented = true
		}
	}
	if !commented {
		t.Error("loader dropped comments; directives would be invisible")
	}
}

func TestLoadBadDir(t *testing.T) {
	if _, err := load.Load("testdata/does-not-exist", "./..."); err == nil {
		t.Fatal("expected an error loading a nonexistent directory")
	}
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := load.Load("../passes/determinism/testdata/strict", "./nosuchpkg"); err == nil {
		t.Fatal("expected an error for a pattern matching nothing")
	}
}

// A type error in a target fails the load, and the error names the file
// and line: the golden module's Count returns a string where an int is
// declared.
func TestLoadTypeError(t *testing.T) {
	_, err := load.Load("testdata/typeerror", "./...")
	if err == nil {
		t.Fatal("loaded a module with a type error")
	}
	if !strings.Contains(err.Error(), "typeerror.go:6:") {
		t.Fatalf("err = %v, want it to name typeerror.go:6", err)
	}
}

// A dependency is checked by declaration only: loading user alone reads
// Count's signature, so the error in Count's body goes unseen.
func TestLoadDependencyDeclarationsOnly(t *testing.T) {
	pkgs, err := load.Load("testdata/typeerror", "./user")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "example.com/typeerror/user" {
		t.Fatalf("got %d packages, want example.com/typeerror/user alone", len(pkgs))
	}
}
