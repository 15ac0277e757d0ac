// Package celint is the driver for the simulator's custom static
// analyzers (dirlint, errlint). It runs only as a vet tool: `go vet -vettool=$(which celint) ./...`
// speaks the cmd/go unitchecker protocol (-V=full, -flags, and one .cfg
// file per compilation unit), so cmd/go orders the units, caches the
// results and threads analyzer facts between them in vetx files.
//
// Exit status: 0 clean, 1 findings, 2 operational error or a call that
// is not from cmd/go.
package celint

import (
	"fmt"
	"go/token"
	"go/types"
	"io"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dirlint"
	"repro/internal/lint/errlint"
)

// Analyzers returns the celint suite in reporting order. dirlint runs
// first so a malformed hatch is reported before the contract finding it
// failed to suppress.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		dirlint.Analyzer,
		errlint.Analyzer,
	}
}

// Main implements the celint command. args excludes the program name.
func Main(args []string, stdout, stderr io.Writer) int {
	if err := analysis.Validate(Analyzers()); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	analysis.RegisterFactTypes(Analyzers())
	// cmd/go protocol probes.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			return printVersion(stdout, stderr)
		case "-flags", "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) == 1 && len(args[0]) > 4 && args[0][len(args[0])-4:] == ".cfg" {
		return vetMode(args[0], stderr)
	}
	fmt.Fprintln(stderr, usage)
	return 2
}

// usage is printed for any invocation that is not a cmd/go vet call.
const usage = "usage: go vet -vettool=$(command -v celint) [packages]"

// diagText formats one diagnostic the way go vet does.
func diagText(fset *token.FileSet, a *analysis.Analyzer, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), a.Name, d.Message)
}

// runAnalyzers applies the suite to one type-checked unit, exporting
// facts into (and importing them from) the given store, and returns the
// formatted findings, sorted by position.
func runAnalyzers(pkg *loadedPackage, facts *analysis.FactSet) ([]string, error) {
	var out []string
	for _, a := range Analyzers() {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.fset,
			Files:     pkg.files,
			Pkg:       pkg.types,
			TypesInfo: pkg.info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if len(a.FactTypes) > 0 && facts != nil {
			name := a.Name
			pass.ImportObjectFact = func(obj types.Object, fact analysis.Fact) bool {
				return facts.ImportObjectFact(name, obj, fact)
			}
			pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
				facts.ExportObjectFact(name, obj, fact)
			}
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.importPath, a.Name, err)
		}
		for _, d := range diags {
			out = append(out, diagText(pkg.fset, a, d))
		}
	}
	sort.Strings(out)
	return out, nil
}
