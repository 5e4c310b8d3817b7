// Package metriclint enforces Prometheus naming rules at metric
// definition sites, at compile time — the static complement of the
// runtime /metrics conformance test (internal/server's
// TestMetricsPrometheusConventions). The runtime test proves the rendered
// exposition is well-formed; this analyzer pins the names and label sets
// at the source locations where someone would add a new metric, so a
// misnamed counter fails `go vet` before it ever renders.
//
// Rules, applied in the metrics-rendering package (internal/server):
//
//   - every string literal in the metric namespace (crowdpricing_*) must
//     be snake_case: lowercase letters, digits, single underscores, no
//     leading/trailing/doubled underscore;
//   - metric rows declared as {name, typ, help, ...} struct literals (the
//     /metrics table) must use a known type (counter, gauge, histogram);
//     counters must end in _total, non-counters must not; help strings
//     must be non-empty sentences ending in a period; a row's label
//     field, when set, must belong to AllowedLabels;
//   - calls to the counter-family helpers (func names containing
//     "Counter") must pass a _total name and a period-terminated help;
//   - label maps are closed: a label key rendered inside {...} in a
//     format string must belong to AllowedLabels. Growing the label set is
//     a deliberate act — extend AllowedLabels in the same change that adds
//     the label, with review on the cardinality.
//
// Waive a finding with `//crowdlint:allow metriclint -- reason`.
package metriclint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"crowdpricing/internal/analysis"
)

// Packages in scope: where metric families are defined and rendered.
var Packages = []string{
	"crowdpricing/internal/server",
}

// Namespace is the metric-name prefix that marks a string literal as a
// metric family name.
const Namespace = "crowdpricing_"

// AllowedLabels is the closed label set. Every label key rendered in an
// exposition format string or declared in a metric row's label field
// must be listed here. "stage" (pipeline stage of the request-tracing
// histograms) and "cohort" (campaign cohort of the analytics counters)
// are bounded by construction: stages are a compiled enum and cohorts
// are kind × adaptive.
var AllowedLabels = []string{"kind", "endpoint", "le", "stage", "cohort"}

// Analyzer is the metric-naming checker.
var Analyzer = &analysis.Analyzer{
	Name: "metriclint",
	Doc: "enforce Prometheus naming at metric definition sites: snake_case crowdpricing_* names, " +
		"counters ending in _total, period-terminated help strings, and a closed label set",
	Run: run,
}

var (
	snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	labelUse  = regexp.MustCompile(`\{([^{}]*)\}`)
	labelKey  = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)=`)
)

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.PkgPath(), Packages) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.TestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					checkLiteral(pass, n)
				}
			case *ast.CompositeLit:
				checkMetricRow(pass, n)
			case *ast.CallExpr:
				checkCounterHelper(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkLiteral applies the namespace and label rules to every string
// literal: metric names must be snake_case wherever they appear, and any
// {label=...} segment must draw from the closed label set.
func checkLiteral(pass *analysis.Pass, lit *ast.BasicLit) {
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if strings.HasPrefix(s, Namespace) && !strings.ContainsAny(s, " {%\n") {
		if !snakeCase.MatchString(s) {
			pass.Reportf(lit.Pos(), "metric name %q is not snake_case (lowercase letters, digits, single underscores)", s)
		}
	}
	for _, m := range labelUse.FindAllStringSubmatch(s, -1) {
		for _, part := range strings.Split(m[1], ",") {
			km := labelKey.FindStringSubmatch(strings.TrimSpace(part))
			if km == nil {
				continue
			}
			if !allowedLabel(km[1]) {
				pass.Reportf(lit.Pos(), "label %q is not in the closed label set %v: extend metriclint.AllowedLabels deliberately (mind the cardinality)", km[1], AllowedLabels)
			}
		}
	}
}

func allowedLabel(key string) bool {
	for _, l := range AllowedLabels {
		if key == l {
			return true
		}
	}
	return false
}

// checkMetricRow validates {name, typ, help, ...} struct literals — the
// shape of the /metrics rendering table.
func checkMetricRow(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	if !hasStringFields(st, "name", "typ", "help") || len(lit.Elts) == 0 {
		return
	}
	name, namePos := fieldString(st, lit, "name")
	typ, _ := fieldString(st, lit, "typ")
	help, helpPos := fieldString(st, lit, "help")
	if name == "" || typ == "" {
		return
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(namePos, "counter %q must end in _total (Prometheus counter naming convention)", name)
		}
	case "gauge", "histogram", "summary":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(namePos, "%s %q must not end in _total: that suffix is reserved for counters", typ, name)
		}
	default:
		pass.Reportf(namePos, "unknown metric type %q (want counter, gauge, histogram, or summary)", typ)
	}
	if helpPos.IsValid() && !validHelp(help) {
		pass.Reportf(helpPos, "metric %q needs a non-empty HELP sentence ending in a period", name)
	}
	if label, labelPos := fieldString(st, lit, "label"); label != "" && !allowedLabel(label) {
		pass.Reportf(labelPos, "label %q is not in the closed label set %v: extend metriclint.AllowedLabels deliberately (mind the cardinality)", label, AllowedLabels)
	}
}

// hasStringFields reports whether st declares every wanted field with
// string type — the signature of a metrics table row.
func hasStringFields(st *types.Struct, want ...string) bool {
	byName := make(map[string]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if basic, ok := f.Type().(*types.Basic); ok && basic.Kind() == types.String {
			byName[f.Name()] = true
		}
	}
	for _, w := range want {
		if !byName[w] {
			return false
		}
	}
	return true
}

// fieldString extracts the string literal assigned to the named field in
// a composite literal, positional or keyed.
func fieldString(st *types.Struct, lit *ast.CompositeLit, field string) (string, token.Pos) {
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return literalString(kv.Value)
			}
			continue
		}
		if i < st.NumFields() && st.Field(i).Name() == field {
			return literalString(el)
		}
	}
	return "", token.NoPos
}

func literalString(e ast.Expr) (string, token.Pos) {
	basic, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || basic.Kind != token.STRING {
		return "", token.NoPos
	}
	s, err := strconv.Unquote(basic.Value)
	if err != nil {
		return "", token.NoPos
	}
	return s, basic.Pos()
}

func validHelp(help string) bool {
	return strings.TrimSpace(help) != "" && strings.HasSuffix(strings.TrimSpace(help), ".")
}

// checkCounterHelper validates calls to counter-family render helpers
// (function names containing "Counter"): the name argument must be a
// _total counter and the help argument a period-terminated sentence.
func checkCounterHelper(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || !strings.Contains(fn.Name(), "Counter") {
		return
	}
	var name, help string
	var namePos, helpPos token.Pos
	for _, arg := range call.Args {
		s, pos := literalString(arg)
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, Namespace) && name == "" {
			name, namePos = s, pos
		} else if help == "" {
			help, helpPos = s, pos
		}
	}
	if name == "" {
		return
	}
	if !strings.HasSuffix(name, "_total") {
		pass.Reportf(namePos, "counter %q must end in _total (Prometheus counter naming convention)", name)
	}
	if helpPos.IsValid() && !validHelp(help) {
		pass.Reportf(helpPos, "metric %q needs a non-empty HELP sentence ending in a period", name)
	}
}
