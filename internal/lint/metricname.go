package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// MetricPrefixes maps a package path to the subsystem prefixes its
// metric names must carry, the naming contract OBSERVABILITY.md
// documents: one prefix per subsystem, so a dashboard query like
// serve_* or rts_* is guaranteed to catch everything the subsystem
// exports and nothing else. Packages not listed register under no
// prefix discipline (they still get the charset and double-registration
// checks).
var MetricPrefixes = map[string][]string{
	"transched/internal/serve":       {"serve_"},
	"transched/internal/serve/store": {"serve_"},
	"transched/internal/experiments": {"sweep_"},
	"transched/internal/rts":         {"rts_"},
}

// metricNameRE is the allowed metric-name shape: Prometheus-compatible
// lower_snake, no leading digit or underscore.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Metricname checks metric registration sites (Registry.Counter/
// Gauge/Histogram calls with constant name arguments): names must
// match ^[a-z][a-z0-9_]*$, carry their package's subsystem prefix
// (MetricPrefixes), and be registered at most once per package —
// Registry.Counter returns the same handle for a repeated name, so a
// second literal registration is at best a confusing alias and at
// worst two subsystems fighting over one time series. Computed names
// (the per-stage histograms the bench CLI builds in a loop) are
// outside the literal contract and skipped.
var Metricname = &Analyzer{
	Name: "metricname",
	Doc: "enforce metric naming: lower_snake, subsystem prefix, registered once\n\n" +
		"Metric name literals must match ^[a-z][a-z0-9_]*$ and carry the\n" +
		"package's subsystem prefix (serve_, sweep_, rts_), and a\n" +
		"name may be registered only once per package. Keeps serve_* and\n" +
		"rts_* dashboard queries exhaustive by construction.",
	Run: runMetricname,
}

var metricRegistryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
}

func runMetricname(pass *Pass) error {
	type site struct {
		pos  token.Pos
		name string
	}
	var sites []site
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !metricRegistryMethods[fn.Name()] || !isObsMethod(fn, "Registry", fn.Name()) {
				return true
			}
			tv := pass.TypesInfo.Types[call.Args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // computed name: outside the literal contract
			}
			sites = append(sites, site{pos: call.Args[0].Pos(), name: constant.StringVal(tv.Value)})
			return true
		})
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	prefixes := MetricPrefixes[pass.Pkg.Path()]
	first := make(map[string]token.Pos)
	for _, s := range sites {
		if prev, dup := first[s.name]; dup {
			pass.Reportf(s.pos,
				"metric %q is already registered in this package at %s; register once and share the handle",
				s.name, pass.Fset.Position(prev))
			continue
		}
		first[s.name] = s.pos
		if !metricNameRE.MatchString(s.name) {
			pass.Reportf(s.pos,
				"metric name %q must match ^[a-z][a-z0-9_]*$ (lower_snake, no leading digit)", s.name)
			continue
		}
		if len(prefixes) > 0 && !hasAnyPrefix(s.name, prefixes) {
			pass.Reportf(s.pos,
				"metric %q lacks the %s subsystem prefix required of package %s (OBSERVABILITY.md naming contract)",
				s.name, strings.Join(prefixes, "/"), pass.Pkg.Path())
		}
	}
	return nil
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
