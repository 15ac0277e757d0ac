// Package directive parses the `//ce:` comment directives that carry the
// simulator's statically-enforced contracts:
//
//	//ce:classify-errors        marks a package whose environmental errors
//	                            must be wrapped into a classified sentinel
//	                            before being returned (errlint)
//	//ce:classifier             marks a function that performs that
//	                            classification (errlint)
//	//ce:err-ok <reason>        per-line errlint escape hatch
//
// Like //go: directives, a //ce: directive has no space after the
// slashes. The per-line escape hatches require a reason and apply to
// findings on their own line or, when the directive stands alone, on the
// line immediately below.
//
// Malformed directives — unknown verbs, required reasons left empty, the
// same verb twice on one line — are loud errors reported by the dirlint
// analyzer (see Problems); a silent typo in a hatch must never silently
// disable a contract.
package directive

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive names.
const (
	ClassifyErrors = "classify-errors"
	Classifier     = "classifier"
	ErrOK          = "err-ok"
)

// verbs is the registry of every known directive and whether its
// trailing text (the reason) is mandatory.
var verbs = map[string]bool{
	ClassifyErrors: false,
	Classifier:     false,
	ErrOK:          true,
}

// Known reports whether name is a registered //ce: verb.
func Known(name string) bool { _, ok := verbs[name]; return ok }

// ReasonRequired reports whether the named verb must carry a reason.
func ReasonRequired(name string) bool { return verbs[name] }

// A Directive is one parsed //ce: comment.
type Directive struct {
	Pos    token.Pos
	Name   string // "classifier", "err-ok", ...
	Reason string // text after the name, trimmed
}

// parse extracts the directive from one comment, if any.
func parse(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//ce:")
	if !ok {
		return Directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	return Directive{Pos: c.Slash, Name: name, Reason: strings.TrimSpace(reason)}, true
}

// InGroup reports whether the comment group carries the named directive.
func InGroup(g *ast.CommentGroup, name string) bool {
	_, ok := Get(g, name)
	return ok
}

// Get returns the named directive from the comment group, if present.
func Get(g *ast.CommentGroup, name string) (Directive, bool) {
	if g == nil {
		return Directive{}, false
	}
	for _, c := range g.List {
		if d, ok := parse(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// PackageMarked reports whether any file of the package carries the named
// package-scope directive (conventionally placed in the package doc
// comment; any comment in any file of the package counts, so multi-file
// packages need the marker only once).
func PackageMarked(files []*ast.File, name string) bool {
	for _, f := range files {
		for _, g := range f.Comments {
			if InGroup(g, name) {
				return true
			}
		}
	}
	return false
}

// FuncMarked reports whether the function's doc comment carries the
// named directive.
func FuncMarked(fd *ast.FuncDecl, name string) bool {
	return InGroup(fd.Doc, name)
}

// Index is a per-file line-indexed view of one directive name, used for
// the per-line escape hatches.
type Index struct {
	fset *token.FileSet
	// byLine maps a line number to the directive covering it. A directive
	// covers its own line; a directive on a line by itself (no code before
	// it) also covers the next line.
	byLine map[int]Directive
}

// NewIndex builds the per-line index of the named escape-hatch directive
// for one file. A directive covers its own line, and the next one too
// when no code starts on its line. A directive missing its required
// reason covers nothing (dirlint reports it through Problems).
func NewIndex(fset *token.FileSet, f *ast.File, name string) *Index {
	idx := &Index{fset: fset, byLine: make(map[int]Directive)}
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})
	for _, g := range f.Comments {
		for _, c := range g.List {
			d, ok := parse(c)
			if !ok || d.Name != name {
				continue
			}
			if d.Reason == "" && ReasonRequired(name) {
				continue
			}
			line := fset.Position(d.Pos).Line
			idx.byLine[line] = d
			if !codeLines[line] {
				idx.byLine[line+1] = d
			}
		}
	}
	return idx
}

// Covering returns the directive covering pos, if any.
func (idx *Index) Covering(pos token.Pos) (Directive, bool) {
	d, ok := idx.byLine[idx.fset.Position(pos).Line]
	return d, ok
}

// A Problem is one malformed //ce: directive.
type Problem struct {
	Pos      token.Pos
	Category string // "unknown-verb", "missing-reason", "dup-directive"
	Message  string
}

// Problems scans every comment of the file for malformed directives:
// unknown verbs (a typo like //ce:errok would otherwise silently
// disable nothing and suppress nothing), known verbs missing their
// mandatory reason, and the same verb appearing twice on one line (the
// second is dead and almost certainly a copy-paste error).
func Problems(fset *token.FileSet, f *ast.File) []Problem {
	var out []Problem
	seen := make(map[string]token.Pos) // "line:verb" → first occurrence
	for _, g := range f.Comments {
		for _, c := range g.List {
			d, ok := parse(c)
			if !ok {
				continue
			}
			if !Known(d.Name) {
				out = append(out, Problem{
					Pos:      d.Pos,
					Category: "unknown-verb",
					Message: fmt.Sprintf("unknown //ce: directive %q (known: %s)",
						d.Name, knownList()),
				})
				continue
			}
			if d.Reason == "" && ReasonRequired(d.Name) {
				out = append(out, Problem{
					Pos:      d.Pos,
					Category: "missing-reason",
					Message: fmt.Sprintf("//ce:%s requires a reason: //ce:%s <why this is acceptable>",
						d.Name, d.Name),
				})
			}
			// `_ = x //ce:err-ok brief //ce:classifier` parses as ONE
			// directive whose reason swallows the second marker — the second
			// hatch is silently dead, which is exactly the failure mode this
			// check exists to make loud.
			if strings.Contains(d.Reason, "//ce:") {
				out = append(out, Problem{
					Pos:      d.Pos,
					Category: "dup-directive",
					Message: fmt.Sprintf("second //ce: directive embedded in the reason of //ce:%s (it is dead text; a line takes one directive)",
						d.Name),
				})
			}
			key := fmt.Sprintf("%d:%s", fset.Position(d.Pos).Line, d.Name)
			if _, dup := seen[key]; dup {
				out = append(out, Problem{
					Pos:      d.Pos,
					Category: "dup-directive",
					Message:  fmt.Sprintf("duplicate //ce:%s on one line (the first occurrence already applies)", d.Name),
				})
			} else {
				seen[key] = d.Pos
			}
		}
	}
	return out
}

// knownList returns the sorted known verbs for error messages.
func knownList() string {
	names := make([]string, 0, len(verbs))
	for n := range verbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
