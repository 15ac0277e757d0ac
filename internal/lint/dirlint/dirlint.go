// Package dirlint makes malformed //ce: directives loud. The directive
// system is the enforcement surface for every other contract in this
// repo; a typo'd verb (//ce:errok), a hatch missing its mandatory
// reason, or a second directive swallowed into the first one's reason
// text would otherwise silently suppress nothing — or worse, convince a
// reader that something is suppressed when it isn't. dirlint turns each
// of those into a finding so a broken hatch can never pass CI.
package dirlint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the dirlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "dirlint",
	Doc:  "flags malformed //ce: directives (unknown verbs, missing reasons, duplicates)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, p := range directive.Problems(pass.Fset, f) {
			pass.Report(analysis.Diagnostic{
				Pos:      p.Pos,
				Category: p.Category,
				Message:  p.Message,
			})
		}
	}
	return nil, nil
}
