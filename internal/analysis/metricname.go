package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Metricname pins the observability inventory conventions (PR 5, DESIGN.md
// §10). Every metric registered on an obs registry must be greppable,
// Prometheus-legal, and self-describing:
//
//  1. snake_case: names and GaugeVec labels match [a-z][a-z0-9_]* with no
//     empty segments — mixed case and dashes break PromQL ergonomics and
//     the registry's own ValidateMetricName would reject them at runtime;
//     the analyzer moves that failure to lint time.
//  2. unit suffix: every metric name ends in _seconds, _bytes, or _total,
//     so a dashboard reader never has to guess the unit.
//  3. unique per package: the same literal name registered twice in one
//     package is almost always a copy-paste slip; the registry's
//     get-or-create semantics would silently alias the two call sites.
//
// Since PR 10 the same analyzer also pins the tracing span inventory:
// every X.Stage(name) interning must use a lowercase dotted
// "stage.substage" literal (two or more dot-separated snake_case
// segments, mirroring obs.ValidateSpanName, which would otherwise panic
// at runtime), and interning the same span literal twice in one package
// is flagged — Stage is get-or-create, so a duplicate literal means two
// call sites silently share one latency histogram and EWMA.
//
// The dynaminer_stage_ metric namespace is derived from stage names, so a
// literal X.Histogram("dynaminer_stage_...") registration is flagged too:
// a hand-registered family there is a second timer for a stage, which
// Registry.Stage refuses at runtime.
//
// The analyzer is syntactic: it inspects calls X.Counter(name, help),
// X.Gauge(name, help), X.Histogram(name, help, buckets),
// X.GaugeVec(name, help, label) and X.Stage(name) whose name argument is
// a string literal. Dynamic names (helper functions forwarding a name
// parameter) are out of reach without type information and are skipped —
// the runtime validator still covers them.
type Metricname struct{}

// Name implements Analyzer.
func (Metricname) Name() string { return "metricname" }

// Doc implements Analyzer.
func (Metricname) Doc() string {
	return "metric registrations with non-snake_case names, missing unit suffixes, or per-package duplicates"
}

// registerArity maps obs registration method names to their exact
// argument count; the name is always the first argument.
var registerArity = map[string]int{
	"Counter":   2, // name, help
	"Gauge":     2, // name, help
	"Histogram": 3, // name, help, bounds
	"GaugeVec":  3, // name, help, label
}

// stagePrefix opens the metric names Registry.Stage derives from dotted
// stage names.
const stagePrefix = "dynaminer_stage_"

// metricSuffixes are the unit suffixes the inventory admits.
var metricSuffixes = []string{"_seconds", "_bytes", "_total"}

// snakeCase reports whether s is non-empty lowercase snake_case with no
// empty segments (mirrors obs.ValidateMetricName's character rules).
func snakeCase(s string) bool {
	if s == "" || s[0] == '_' || s[len(s)-1] == '_' || strings.Contains(s, "__") {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// spanName reports whether s is a lowercase dotted span name: two or
// more dot-separated segments, each [a-z][a-z0-9_]* (the grammar
// obs.ValidateSpanName enforces at runtime).
func spanName(s string) bool {
	segs := strings.Split(s, ".")
	if len(segs) < 2 {
		return false
	}
	for _, seg := range segs {
		if seg == "" || seg[0] < 'a' || seg[0] > 'z' || !snakeCase(seg) {
			return false
		}
	}
	return true
}

// stringLit unquotes e when it is a string literal, reporting ok.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// Run implements Analyzer.
func (m Metricname) Run(pass *Pass) []Finding {
	var out []Finding
	seen := map[string]token.Pos{}     // literal metric name -> first registration
	seenSpan := map[string]token.Pos{} // literal span name -> first interning
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Stage" && len(call.Args) == 1 {
				name, ok := stringLit(call.Args[0])
				if !ok {
					return true // dynamic name: obs.ValidateSpanName covers it
				}
				if !spanName(name) {
					out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
						"span name %q is not lowercase dotted stage.substage (two or more [a-z][a-z0-9_]* segments); Tracer.Stage would panic at runtime", name))
				}
				if first, dup := seenSpan[name]; dup {
					out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
						"span %q already interned at %s in this package; Stage is get-or-create, so the two sites would share one histogram and EWMA",
						name, pass.Fset.Position(first)))
				} else {
					seenSpan[name] = call.Args[0].Pos()
				}
				return true
			}
			arity, ok := registerArity[sel.Sel.Name]
			if !ok || len(call.Args) != arity {
				return true
			}
			name, ok := stringLit(call.Args[0])
			if !ok {
				return true // dynamic name: the runtime validator covers it
			}
			if !snakeCase(name) {
				out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
					"metric name %q is not snake_case ([a-z][a-z0-9_]*, no empty segments)", name))
			} else if !hasMetricSuffix(name) {
				out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
					"metric name %q lacks a unit suffix (want _seconds, _bytes, or _total)", name))
			}
			if first, dup := seen[name]; dup {
				out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
					"metric %q already registered at %s in this package; get-or-create would silently alias the two sites",
					name, pass.Fset.Position(first)))
			} else {
				seen[name] = call.Args[0].Pos()
			}
			if sel.Sel.Name == "Histogram" && strings.HasPrefix(name, stagePrefix) {
				out = append(out, pass.finding(m.Name(), call.Args[0].Pos(),
					"histogram %q is in the %s namespace derived from stage names; register the stage with Stage(name) so it keeps one timer",
					name, stagePrefix))
			}
			if sel.Sel.Name == "GaugeVec" {
				if label, ok := stringLit(call.Args[2]); ok && !snakeCase(label) {
					out = append(out, pass.finding(m.Name(), call.Args[2].Pos(),
						"GaugeVec label %q is not snake_case", label))
				}
			}
			return true
		})
	}
	return out
}

// hasMetricSuffix reports whether name ends in an admitted unit suffix.
func hasMetricSuffix(name string) bool {
	for _, s := range metricSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
