// Package determinism enforces the repository's seed-determinism
// contract: policies, schedules, fingerprints, and snapshots must be pure
// functions of their inputs, bit-identical across runs and platforms.
//
// Two package tiers are checked:
//
//   - Strict packages (the solver core, distributions, arrival processes,
//     the rate fit, the simulator, the kind registry, the bench generator,
//     the figure pipeline, the event log, the marketplace simulator and the
//     generic MDP solvers behind the live figures, every example, and every
//     command but priced and loadbench, which read the wall clock by
//     design):
//     every non-test function is a deterministic path. Wall-clock reads,
//     global math/rand draws, and order-sensitive map iteration are
//     flagged anywhere.
//   - Reachability packages (server, engine, campaign): wall-clock and
//     global-rand rules still apply everywhere (these daemons cache and
//     replay deterministic artifacts), but map-iteration is only flagged
//     inside functions reachable from a Fingerprint/encode/snapshot/hash
//     root, where iteration order leaks into cache keys or durable bytes.
//
// Three rules:
//
//   - no wall-clock calls: time.Now, time.Since, time.Until. Referencing
//     time.Now as a value (seeding an injectable clock field) is fine —
//     that is exactly the pattern the analyzer pushes code toward.
//   - no global math/rand or math/rand/v2 top-level draw functions
//     (rand.Int, rand.Float64, rand.Shuffle, ...): they read the shared
//     process-global source. Constructors (rand.New, rand.NewPCG) that
//     build seeded, injectable sources are fine.
//   - no order-sensitive map iteration: `for ... range m` over a map is
//     flagged unless the body is one of the two order-insensitive idioms —
//     a single `xs = append(xs, ...)` collect (sort it afterwards!) or
//     statements that only write map entries.
//
// Waive a finding with `//crowdlint:allow determinism -- reason` on or
// above the line (instrumentation that genuinely wants wall time, jitter
// that genuinely wants decorrelation).
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"crowdpricing/internal/analysis"
)

// StrictPackages are checked in full: every function in them is part of
// the seed→artifact pure function.
var StrictPackages = []string{
	"crowdpricing/internal/core",
	"crowdpricing/internal/dist",
	"crowdpricing/internal/nhpp",
	"crowdpricing/internal/rate",
	"crowdpricing/internal/sim",
	"crowdpricing/internal/kinds",
	"crowdpricing/internal/bench",
	"crowdpricing/internal/exp",
	"crowdpricing/internal/wal",
	"crowdpricing/internal/market",
	"crowdpricing/internal/mdp",
	"crowdpricing/cmd/crowdlint",
	"crowdpricing/cmd/experiments",
	"crowdpricing/cmd/pricer",
	"crowdpricing/cmd/tracegen",
	"crowdpricing/cmd/wal",
	"crowdpricing/examples/entityresolution",
	"crowdpricing/examples/livemarket",
	"crowdpricing/examples/moderation",
	"crowdpricing/examples/quickstart",
	"crowdpricing/examples/tradeoff",
}

// ReachPackages get the wall-clock and global-rand rules everywhere but
// the map-iteration rule only inside functions reachable from a
// Fingerprint/encode/snapshot/hash root.
var ReachPackages = []string{
	"crowdpricing/internal/server",
	"crowdpricing/internal/engine",
	"crowdpricing/internal/campaign",
}

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand draws, and order-sensitive map iteration " +
		"in packages whose outputs must be bit-identical by seed",
	Run: run,
}

func run(pass *analysis.Pass) error {
	strict := analysis.InScope(pass.PkgPath(), StrictPackages)
	if !strict && !analysis.InScope(pass.PkgPath(), ReachPackages) {
		return nil
	}
	reachable := rootReachable(pass)
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRange := strict || reachable[funcObj(pass, fd)]
			checkFunc(pass, fd.Body, checkMapRange)
		}
	}
	return nil
}

// checkFunc applies the rules to one function body, descending into
// closures (a closure inherits its parent's map-range obligation).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, checkMapRange bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			if checkMapRange {
				checkRange(pass, n)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"call to time.%s in a deterministic path: thread an injectable clock (or annotate instrumentation with //crowdlint:allow determinism -- reason)", name)
		}
	case "math/rand", "math/rand/v2":
		// Only package-level draw functions read the shared global source;
		// methods on an injected *rand.Rand are the sanctioned pattern, as
		// are the constructors that build one.
		if fn.Signature().Recv() != nil {
			return
		}
		switch name {
		case "New", "NewPCG", "NewChaCha8", "NewSource", "NewZipf":
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the process-wide random source: draw from a seeded, injected source instead", pathBase(pkg), name)
	}
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitiveBody(pass, rng.Body) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is random: iterate a sorted key slice (or collect-then-sort), or annotate with //crowdlint:allow determinism -- reason")
}

// orderInsensitiveBody recognizes the loop bodies whose effect cannot
// depend on iteration order: a single collect-append into one slice
// (callers sort afterwards), bodies that only write map entries, and
// integer `+=` accumulations (integer addition is associative and
// commutative — unlike float addition, which IS order-sensitive in the
// low bits and is deliberately not exempted).
func orderInsensitiveBody(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	if len(body.List) == 1 {
		if isSelfAppend(body.List[0]) {
			return true
		}
	}
	if allIntAccum(pass, body.List) {
		return true
	}
	for _, stmt := range body.List {
		if !isMapWrite(stmt) {
			return false
		}
	}
	return true
}

// isSelfAppend matches `xs = append(xs, ...)`.
func isSelfAppend(stmt ast.Stmt) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	arg0, ok2 := call.Args[0].(*ast.Ident)
	return ok && ok2 && lhs.Name == arg0.Name
}

// allIntAccum reports whether every statement is an integer `x += expr`
// (or `x++`): exact-arithmetic accumulation commutes across iteration
// order.
func allIntAccum(pass *analysis.Pass, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			if !isIntExpr(pass, s.X) {
				return false
			}
		case *ast.AssignStmt:
			if s.Tok != token.ADD_ASSIGN || len(s.Lhs) != 1 || !isIntExpr(pass, s.Lhs[0]) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func isIntExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// isMapWrite matches `m[k] = v` (and m[k] op= v): writes commute across
// iteration order as long as keys are distinct, which they are when k is
// the range key.
func isMapWrite(stmt ast.Stmt) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if _, ok := lhs.(*ast.IndexExpr); !ok {
			return false
		}
	}
	return true
}

// rootReachable builds the package-internal static call graph and returns
// the set of functions reachable from determinism roots: Fingerprint,
// encode*/Encode*, *Snapshot*/snapshot*, hash*/Hash*, Marshal*.
func rootReachable(pass *analysis.Pass) map[*types.Func]bool {
	callees := make(map[*types.Func][]*types.Func)
	var roots []*types.Func
	for _, file := range pass.Files {
		// Test files neither contribute roots nor edges: a test helper named
		// like a root must not put production functions under the map-range
		// rule (diagnostics are never reported in test files anyway).
		if pass.TestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := funcObj(pass, fd)
			if obj == nil {
				continue
			}
			if isRootName(fd.Name.Name) {
				roots = append(roots, obj)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := analysis.Callee(pass.Info, call); fn != nil && fn.Pkg() == pass.Pkg {
					callees[obj] = append(callees[obj], fn)
				}
				return true
			})
		}
	}
	reachable := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if reachable[fn] {
			return
		}
		reachable[fn] = true
		for _, next := range callees[fn] {
			visit(next)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return reachable
}

func isRootName(name string) bool {
	lower := strings.ToLower(name)
	switch {
	case name == "Fingerprint",
		strings.HasPrefix(lower, "encode"),
		strings.Contains(lower, "snapshot"),
		strings.HasPrefix(lower, "hash"),
		strings.HasPrefix(name, "Marshal"):
		return true
	}
	return false
}

func funcObj(pass *analysis.Pass, fd *ast.FuncDecl) *types.Func {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	return fn
}
