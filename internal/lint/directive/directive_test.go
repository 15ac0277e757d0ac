package directive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestKnownAndReasonRequired(t *testing.T) {
	for _, name := range []string{ClassifyErrors, Classifier, ErrOK} {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	if Known("errok") {
		t.Error("Known accepted a typo verb")
	}
	if !ReasonRequired(ErrOK) {
		t.Errorf("ReasonRequired(%q) = false, want true", ErrOK)
	}
	for _, name := range []string{ClassifyErrors, Classifier} {
		if ReasonRequired(name) {
			t.Errorf("ReasonRequired(%q) = true, want false", name)
		}
	}
}

func TestProblemsMissingReason(t *testing.T) {
	fset, f := parseSrc(t, `package p

func f() {
	_ = 1 //ce:err-ok
}
`)
	probs := Problems(fset, f)
	if len(probs) != 1 || !strings.Contains(probs[0].Message, "requires a reason") {
		t.Fatalf("Problems = %v, want one missing-reason error", probs)
	}
	// And the reasonless hatch must not cover anything: neither its own
	// line nor the one below.
	idx := NewIndex(fset, f, ErrOK)
	tf := fset.File(f.Pos())
	for _, line := range []int{4, 5} {
		if d, ok := idx.Covering(tf.LineStart(line)); ok {
			t.Errorf("reasonless hatch covers line %d: %+v", line, d)
		}
	}
}

func TestProblemsUnknownVerb(t *testing.T) {
	fset, f := parseSrc(t, `package p

//ce:errok suppressed by typo
func f() {}
`)
	probs := Problems(fset, f)
	if len(probs) != 1 || !strings.Contains(probs[0].Message, `unknown //ce: directive "errok"`) {
		t.Fatalf("Problems = %v, want one unknown-verb error", probs)
	}
	// The message names the real verbs so the fix is obvious.
	if !strings.Contains(probs[0].Message, "err-ok") {
		t.Fatalf("unknown-verb message should list known verbs: %q", probs[0].Message)
	}
}

func TestProblemsDuplicateOnOneLine(t *testing.T) {
	// A second //ce: marker in the same line comment is swallowed into the
	// first comment's text by go/parser, so the syntactic duplicate is two
	// *ast.Comment entries sharing a line. Build that shape directly.
	fset := token.NewFileSet()
	file := fset.AddFile("d.go", -1, 100)
	for i := 1; i <= 3; i++ {
		file.AddLine(i * 20)
	}
	mk := func(offset int, text string) *ast.Comment {
		return &ast.Comment{Slash: file.Pos(offset), Text: text}
	}
	f := &ast.File{
		Name: &ast.Ident{Name: "p", NamePos: file.Pos(0)},
		Comments: []*ast.CommentGroup{{List: []*ast.Comment{
			mk(2, "//ce:err-ok brief"),
			mk(10, "//ce:err-ok brief again"), // same line (offsets 2,10 < 20)
		}}},
	}
	probs := Problems(fset, f)
	if len(probs) != 1 || !strings.Contains(probs[0].Message, "duplicate //ce:err-ok") {
		t.Fatalf("Problems = %v, want one duplicate error", probs)
	}
}

func TestProblemsEmbeddedSecondDirective(t *testing.T) {
	fset, f := parseSrc(t, `package p

func f() {
	_ = 1 //ce:err-ok brief //ce:classifier
}
`)
	probs := Problems(fset, f)
	if len(probs) != 1 || !strings.Contains(probs[0].Message, "embedded in the reason") {
		t.Fatalf("Problems = %v, want one embedded-directive error", probs)
	}
}

func TestProblemsCleanFile(t *testing.T) {
	fset, f := parseSrc(t, `package p

// Package-level prose that merely mentions //ce:classify-errors inside a
// sentence is fine as long as the comment doesn't start with the marker.

//ce:classifier
func f() {
	_ = 1 //ce:err-ok brief passthrough
}
`)
	if probs := Problems(fset, f); len(probs) != 0 {
		t.Fatalf("clean file produced problems: %v", probs)
	}
}

func TestIndexCoversOwnAndNextLine(t *testing.T) {
	fset, f := parseSrc(t, `package p

func f() {
	//ce:err-ok short passthrough
	err := 1
	_ = err //ce:err-ok inline reason
	_ = 2
}
`)
	idx := NewIndex(fset, f, ErrOK)
	find := func(line int) bool {
		_, ok := idx.byLine[line]
		return ok
	}
	if !find(4) || !find(5) {
		t.Error("standalone directive should cover its own and the next line")
	}
	if !find(6) {
		t.Error("trailing directive should cover its own line")
	}
	if find(7) {
		t.Error("directive leaked past its line")
	}
}

func TestFuncDirectiveAndGet(t *testing.T) {
	_, f := parseSrc(t, `package p

//ce:classifier wraps disk errors at the cache seam
func g() {}
`)
	fd := f.Decls[0].(*ast.FuncDecl)
	if !FuncMarked(fd, Classifier) {
		t.Fatal("FuncMarked missed the function's //ce:classifier")
	}
	d, ok := Get(fd.Doc, Classifier)
	if !ok || d.Reason != "wraps disk errors at the cache seam" {
		t.Fatalf("Get = %+v, %v", d, ok)
	}
	if FuncMarked(fd, ClassifyErrors) {
		t.Fatal("FuncMarked found a directive that isn't there")
	}
}
