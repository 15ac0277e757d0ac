// Package analysistest runs a celint analyzer over fixture packages and
// checks its diagnostics against // want "regexp" comment expectations,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <dir>/src/<importpath>/ as ordinary Go files. A
// line producing diagnostics carries a trailing comment of the form
//
//	// want "first message regexp" "second message regexp"
//
// with one quoted regexp per expected diagnostic on that line. Every
// diagnostic must be expected and every expectation must be matched.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// TestData returns the calling test's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package and applies the analyzer, reporting
// mismatches between produced diagnostics and // want expectations as
// test failures. It returns the diagnostics per package for tests that
// make extra assertions (e.g. on suggested fixes).
//
// When the analyzer declares FactTypes, Run mirrors the celint vet
// driver's bottom-up analysis: before a listed package is analyzed, the
// analyzer first runs fact-only over the package's fixture dependencies
// (recursively, in dependency order), and after every pass the whole
// fact set is round-tripped through the gob encoder — so a fixture
// exercising cross-package findings also proves the facts survive vetx
// serialization. Want-comments in a dependency are only checked when the
// dependency itself is listed in pkgPaths (list "base" before "top" to
// check both sides of a propagation).
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) map[string][]analysis.Diagnostic {
	t.Helper()
	if err := analysis.Validate([]*analysis.Analyzer{a}); err != nil {
		t.Fatal(err)
	}
	ld := newLoader(dir)
	facts := analysis.NewFactSet()
	analysis.RegisterFactTypes([]*analysis.Analyzer{a})
	analyzed := make(map[string]bool)

	// runPass applies the analyzer to one fixture package with the shared
	// fact store, then replaces the store with its own gob round trip.
	runPass := func(pkg *fixturePkg, report func(analysis.Diagnostic)) error {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      ld.fset,
			Files:     pkg.files,
			Pkg:       pkg.types,
			TypesInfo: pkg.info,
			Report:    report,
		}
		if len(a.FactTypes) > 0 {
			pass.ImportObjectFact = func(obj types.Object, f analysis.Fact) bool {
				return facts.ImportObjectFact(a.Name, obj, f)
			}
			pass.ExportObjectFact = func(obj types.Object, f analysis.Fact) {
				facts.ExportObjectFact(a.Name, obj, f)
			}
		}
		if _, err := a.Run(pass); err != nil {
			return err
		}
		blob, err := facts.Encode()
		if err != nil {
			return err
		}
		facts = analysis.NewFactSet()
		return facts.Decode(blob)
	}

	// ensureFacts runs the analyzer fact-only over a fixture package and
	// its fixture dependencies, bottom-up.
	var ensureFacts func(path string) error
	ensureFacts = func(path string) error {
		if analyzed[path] {
			return nil
		}
		analyzed[path] = true
		pkg, err := ld.load(path)
		if err != nil {
			return err
		}
		for _, imp := range pkg.types.Imports() {
			if ld.isFixture(imp.Path()) {
				if err := ensureFacts(imp.Path()); err != nil {
					return err
				}
			}
		}
		return runPass(pkg, func(analysis.Diagnostic) {})
	}

	out := make(map[string][]analysis.Diagnostic)
	for _, path := range pkgPaths {
		path := path
		t.Run(path, func(t *testing.T) {
			pkg, err := ld.load(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			if len(a.FactTypes) > 0 {
				for _, imp := range pkg.types.Imports() {
					if ld.isFixture(imp.Path()) {
						if err := ensureFacts(imp.Path()); err != nil {
							t.Fatalf("analyzing dependencies of %s: %v", path, err)
						}
					}
				}
			}
			analyzed[path] = true
			var diags []analysis.Diagnostic
			if err := runPass(pkg, func(d analysis.Diagnostic) { diags = append(diags, d) }); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			check(t, ld.fset, pkg.files, diags)
			out[path] = diags
		})
	}
	return out
}

// fixturePkg is one loaded-and-type-checked fixture package.
type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader loads fixture packages from dir/src, resolving imports of other
// fixture packages recursively and everything else through the compiler
// importer (stdlib export data).
type loader struct {
	dir    string
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*fixturePkg
}

func newLoader(dir string) *loader {
	return &loader{
		dir:    dir,
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		loaded: make(map[string]*fixturePkg),
	}
}

// isFixture reports whether the import path resolves to a fixture
// package under dir/src.
func (ld *loader) isFixture(path string) bool {
	_, err := os.Stat(filepath.Join(ld.dir, "src", path))
	return err == nil
}

// Import implements types.Importer so fixture packages can import each
// other (the cross-package fact tests need this).
func (ld *loader) Import(path string) (*types.Package, error) {
	if ld.isFixture(path) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	pkgDir := filepath.Join(ld.dir, "src", path)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &fixturePkg{files: files, types: tpkg, info: info}
	ld.loaded[path] = pkg
	return pkg, nil
}

// expectation is one // want entry.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	text string // source text of the regexp, for failure messages
	hit  bool
}

// wantRe matches both comment forms; the block form lets fixtures attach
// an expectation to a line that ends in a //-comment (e.g. a //ce:
// directive that is itself expected to be flagged).
var wantRe = regexp.MustCompile(`^(?://|/\*)\s*want\s+(.*?)(?:\s*\*/)?$`)

// check compares diagnostics against the // want comments in files.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, lit := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, rx: rx, text: lit,
					})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.text)
		}
	}
}

// splitQuoted extracts the double-quoted Go string literals from a want
// payload: `"a" "b c"` → [`"a"`, `"b c"`].
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		rest := s[start+1:]
		end := 0
		for {
			i := strings.IndexByte(rest[end:], '"')
			if i < 0 {
				return out // unterminated; caller reports via Unquote failure
			}
			end += i
			// Count the backslashes immediately before the quote; an odd
			// run means it is escaped.
			bs := 0
			for j := end - 1; j >= 0 && rest[j] == '\\'; j-- {
				bs++
			}
			if bs%2 == 0 {
				break
			}
			end++
		}
		out = append(out, s[start:start+1+end+1])
		s = rest[end+1:]
	}
}
