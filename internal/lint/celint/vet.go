package celint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// vetConfig mirrors the fields of cmd/go's per-package vet config file
// (the JSON handed to -vettool binaries; see x/tools unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// printVersion implements -V=full. cmd/go hashes this line into the
// build cache key, so it must be stable for a given binary: embed the
// content hash of the executable itself.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s version devel buildID=%x\n", exe, h.Sum(nil)[:16])
	return 0
}

// vetMode analyzes the single compilation unit described by cfgPath,
// following the unitchecker protocol: diagnostics to stderr, exit 1 when
// any are found, and always produce the VetxOutput file so cmd/go's
// action cache has its output and dependent units can import the facts.
//
// cmd/go drives the tool over every dependency of the vetted packages
// with VetxOnly set, which is what makes the analysis interprocedural:
// the dependency pass computes and serializes facts (diagnostics are
// suppressed — the user asked to vet their packages, not the whole
// dependency closure), and the dependent's pass reads them back through
// PackageVetx. cmd/go lists only the unit's direct imports there, so the
// VetxOutput carries the unit's transitive fact closure — the facts it
// decoded plus the ones its own pass exported — or a fact about a
// package reached only through another import would never arrive.
func vetMode(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(stderr, "celint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	writeVetx := func(encoded []byte) bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, encoded, 0o666); err != nil {
			fmt.Fprintln(stderr, "celint:", err)
			return false
		}
		return true
	}
	if stdlibUnit(cfg) {
		// Standard-library unit: the analyzers special-case the stdlib
		// surface they care about (host clock reads, env error sources)
		// instead of deriving facts from its source, so skip the
		// typecheck and hand back an empty fact set.
		if !writeVetx(nil) {
			return 2
		}
		return 0
	}
	facts := analysisFactsFromVetx(cfg, stderr)
	if facts == nil {
		return 2
	}
	pkg, err := typecheckVetUnit(cfg)
	if err != nil {
		writeVetx(nil)
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	findings, err := runAnalyzers(pkg, facts)
	if err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	encoded, err := facts.Encode()
	if err != nil {
		fmt.Fprintln(stderr, "celint:", err)
		return 2
	}
	if !writeVetx(encoded) {
		return 2
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, diagnostics suppressed
	}
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// stdlibUnit reports whether the unit lives in GOROOT.
func stdlibUnit(cfg *vetConfig) bool {
	if cfg.Standard[cfg.ImportPath] {
		return true
	}
	goroot := runtime.GOROOT()
	if goroot == "" {
		return false
	}
	rel, err := filepath.Rel(filepath.Join(goroot, "src"), cfg.Dir)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// analysisFactsFromVetx decodes every direct dependency's fact closure.
// The closures overlap wherever two imports share a dependency, but each
// fact was computed once, by the unit that declares its object, so the
// overlapping copies are identical. The files are read in sorted order
// for determinism all the same. Returns nil after printing on error.
func analysisFactsFromVetx(cfg *vetConfig, stderr io.Writer) *analysis.FactSet {
	facts := analysis.NewFactSet()
	paths := make([]string, 0, len(cfg.PackageVetx))
	for p := range cfg.PackageVetx {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(cfg.PackageVetx[p])
		if err != nil {
			fmt.Fprintf(stderr, "celint: reading facts of %s: %v\n", p, err)
			return nil
		}
		if err := facts.Decode(data); err != nil {
			fmt.Fprintf(stderr, "celint: decoding facts of %s: %v\n", p, err)
			return nil
		}
	}
	return facts
}

// loadedPackage is one type-checked compilation unit ready for analysis.
type loadedPackage struct {
	importPath string
	fset       *token.FileSet
	files      []*ast.File
	types      *types.Package
	info       *types.Info
}

// typecheckVetUnit parses and type-checks the unit from cfg, resolving
// imports via the export files cmd/go listed in PackageFile.
func typecheckVetUnit(cfg *vetConfig) (*loadedPackage, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, compiler, lookup)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}
	return &loadedPackage{
		importPath: cfg.ImportPath,
		fset:       fset,
		files:      files,
		types:      tpkg,
		info:       info,
	}, nil
}
