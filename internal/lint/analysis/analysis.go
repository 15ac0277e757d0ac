// Package analysis is a self-contained re-implementation of the core of
// golang.org/x/tools/go/analysis, providing just the surface the celint
// analyzers need: an Analyzer descriptor, a per-package Pass, and
// Diagnostics.
//
// The module is intentionally dependency-free (the build environment has
// no module proxy), so it cannot import x/tools. The types here mirror
// the x/tools API shape field-for-field; if the dependency ever becomes
// available, the analyzers port by switching one import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("errlint").
	Name string
	// Doc is the one-paragraph help text; its first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
	// FactTypes lists the fact types this analyzer exports and imports.
	// Each entry must be a pointer to a gob-serializable struct. Declaring
	// fact types is what opts the analyzer into bottom-up analysis of
	// dependency packages.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. It must be non-nil.
	Report func(Diagnostic)
	// ImportObjectFact copies the fact of type *fact previously exported
	// for obj (by this analyzer, in this or a dependency package) into
	// *fact and reports whether one existed. Wired by the driver when the
	// analyzer declares FactTypes; nil otherwise.
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportObjectFact records a fact for obj, visible to later passes of
	// the same analyzer over packages that import this one. obj must
	// belong to the package under analysis. Wired by the driver when the
	// analyzer declares FactTypes; nil otherwise.
	ExportObjectFact func(obj types.Object, fact Fact)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos token.Pos
	// Category is an optional short rule identifier within the analyzer
	// ("err-raw", "unknown-verb"), used by tests and tooling.
	Category string
	Message  string
}

// Validate checks analyzer metadata (mirrors x/tools analysis.Validate in
// spirit: names must be unique and non-empty, Run non-nil, fact types
// pointers to structs).
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		switch {
		case a == nil:
			return fmt.Errorf("analysis: nil analyzer")
		case a.Name == "":
			return fmt.Errorf("analysis: analyzer with empty name")
		case a.Run == nil:
			return fmt.Errorf("analysis: analyzer %s has nil Run", a.Name)
		case seen[a.Name]:
			return fmt.Errorf("analysis: duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
		for _, f := range a.FactTypes {
			if err := validateFactType(f); err != nil {
				return fmt.Errorf("analysis: analyzer %s: %v", a.Name, err)
			}
		}
	}
	return nil
}
