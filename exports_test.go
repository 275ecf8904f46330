package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods under internal/
// and cmd/ that no shipped code names but that stay, each with its reason.
var testOnlyExports = map[string]string{
	"fault.Transport.RoundTrip": "implements http.RoundTripper: http.Client calls it, never by name",
	"wlopt.OptimizeAscent":      "README API: the ascent entry point next to wlopt.Optimize",
	"spec.Spec.Marshal":         "README API and the fixed point FuzzSpecRoundTrip checks",
	"service.Manager.Halt":      "test hook: crash-recovery tests stop a manager without draining it",
	"fault.NewFS":               "test hook: fault and cmd/wloptr crash tests inject filesystem faults",
	"fault.FS.Stats":            "test hook: fault tests count the injected filesystem faults",
	"fault.Transport.Stats":     "test hook: fault and cmd/wloptr tests count the injected transport faults",
	"router.Router.Pool":        "test hook: router and cmd/wloptr tests read backend health",
	"router.Ring.Owner":         "test hook: ring tests check which backend owns a key",
	"api.Client.Submit":         "test hook: api, router and cmd/wloptr tests submit without watching",
	"core.Engine.PlanCacheLen":  "test hook: plan-cache bound and eviction tests",
	"metrics.Histogram.Count":   "test hook: tests read a histogram's observation count",
	"metrics.Counter.Value":     "test hook: tests read a counter",
	"wlopt.Oracle.Steps":        "test hook: the search-loop allocation tests count greedy steps",
	"fft.DFTNaive":              "reference: the O(N^2) DFT the fast transforms are checked against",
	"filter.Filter.DCGain":      "reference: the DC gain PSD propagation tests compare against",
	"filter.Filter.PowerGain":   "reference: the noise power gain PSD propagation tests compare against",
}

// TestNoTestOnlyExports fails for every exported top-level function or
// method declared in a non-test file under internal/ or cmd/ whose name
// appears as an identifier in no non-test Go file of the repository outside
// its own declaration (examples/ and e2ebench/ count), unless
// testOnlyExports keeps it. Matching is by name alone, so a function that
// anything calls is never flagged; code that only tests reach belongs in a
// _test.go file or nowhere.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, pos string
		body     *ast.FuncDecl
	}
	var decls []decl
	// uses counts, per identifier name, the top-level declarations that
	// mention it other than as a function's own name.
	uses := map[string]int{}
	// within records which names each function declaration mentions, so
	// its own mentions can be discounted.
	within := map[*ast.FuncDecl]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		shipped := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		for _, dd := range f.Decls {
			names := map[string]bool{}
			fd, isFunc := dd.(*ast.FuncDecl)
			ast.Inspect(dd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !(isFunc && id == fd.Name) {
					names[id.Name] = true
				}
				return true
			})
			for name := range names {
				uses[name]++
			}
			if !isFunc {
				continue
			}
			within[fd] = names
			if !shipped || !fd.Name.IsExported() {
				continue
			}
			key := filepath.Base(filepath.Dir(path)) + "."
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				key += typ.(*ast.Ident).Name + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fset.Position(fd.Pos()).String(), fd})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		n := uses[d.body.Name.Name]
		if within[d.body][d.body.Name.Name] {
			n--
		}
		if n > 0 {
			continue
		}
		if _, ok := testOnlyExports[d.key]; !ok {
			t.Errorf("%s: %s is referenced by no shipped code; delete it, move it into a _test.go file, or list it in testOnlyExports with a reason", d.pos, d.key)
		}
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer declared", key)
		}
	}
}
