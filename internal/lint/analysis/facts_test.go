package analysis

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	Hits  int
	Trail []string
}

func (*testFact) AFact() {}

// checkPkg type-checks one source string as package p and returns the
// package.
func checkPkg(t *testing.T, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("example.com/p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestFactSetRoundTrip(t *testing.T) {
	pkg := checkPkg(t, `package p
type R struct{}
func (r *R) Step() {}
func Helper() {}
`)
	RegisterFactTypes([]*Analyzer{{
		Name:      "testlint",
		Run:       func(*Pass) (any, error) { return nil, nil },
		FactTypes: []Fact{new(testFact)},
	}})

	step, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup("R").Type(), true, pkg, "Step")
	helper := pkg.Scope().Lookup("Helper")
	if got := ObjectKey(step); got != "(*example.com/p.R).Step" {
		t.Fatalf("ObjectKey(Step) = %q", got)
	}

	s := NewFactSet()
	s.ExportObjectFact("testlint", step, &testFact{Hits: 3, Trail: []string{"Step", "fill"}})
	s.ExportObjectFact("testlint", helper, &testFact{Hits: 1})

	blob, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded := NewFactSet()
	if err := decoded.Decode(blob); err != nil {
		t.Fatal(err)
	}
	var got testFact
	if !decoded.ImportObjectFact("testlint", step, &got) || got.Hits != 3 || len(got.Trail) != 2 {
		t.Fatalf("after decode: %+v", got)
	}
	got = testFact{}
	if !decoded.ImportObjectFact("testlint", helper, &got) || got.Hits != 1 {
		t.Fatalf("after decode: %+v", got)
	}

	// Encoding is deterministic regardless of map iteration order, and a
	// decoded set re-encodes to the same bytes.
	for _, set := range []*FactSet{s, decoded} {
		again, err := set.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatal("fact encoding not deterministic")
		}
	}

	// A fact does not leak across analyzer namespaces.
	if decoded.ImportObjectFact("otherlint", step, &testFact{}) {
		t.Fatal("fact leaked across analyzer namespace")
	}
}

func TestValidateRejectsBadFactTypes(t *testing.T) {
	bad := &Analyzer{
		Name:      "bad",
		Run:       func(*Pass) (any, error) { return nil, nil },
		FactTypes: []Fact{nil},
	}
	if err := Validate([]*Analyzer{bad}); err == nil {
		t.Fatal("Validate accepted nil fact type")
	}
}
