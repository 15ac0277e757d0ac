package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a datum an analyzer attaches to a package-level object
// (typically an exported function) so that later passes of the same
// analyzer — over packages that import the object's package — can see
// through the call without re-analyzing the callee's source. Concrete
// fact types must be pointers to gob-serializable structs with exported
// fields and must be listed in the owning Analyzer's FactTypes.
//
// Facts are namespaced per analyzer: one analyzer's fact about a
// function is invisible to every other analyzer, mirroring the x/tools
// fact model.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// ObjectKey returns the stable cross-package key for a package-level
// object. For functions and methods it is types.Func.FullName — e.g.
// "repro/internal/trace.ReadFile" or "(*repro/internal/trace.Reader).Step" —
// which is identical whether the object was type-checked from source
// (the vettool's own unit, analysistest) or reconstructed from gc export
// data (the unit's imports), making it safe to persist in vetx files.
func ObjectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return f.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// factKey identifies one stored fact: which analyzer owns it, which
// object it describes, and which concrete fact type it is (an analyzer
// may declare several).
type factKey struct {
	analyzer string
	object   string
	typ      string
}

// FactSet is the driver-side store of facts for one analysis run. The
// vettool driver decodes one from the vetx files of a compilation unit's
// direct imports, runs the unit's passes into it, and encodes the whole
// set as the unit's own vetx file: each vetx file thus carries the
// transitive fact closure of its unit, so facts about a package reached
// only through another import still arrive.
type FactSet struct {
	facts map[factKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{facts: make(map[factKey]Fact)}
}

// ExportObjectFact stores fact for obj under the given analyzer's
// namespace, replacing any previous fact of the same concrete type.
func (s *FactSet) ExportObjectFact(analyzer string, obj types.Object, fact Fact) {
	if err := validateFactType(fact); err != nil {
		panic(fmt.Sprintf("analysis: ExportObjectFact(%s): %v", analyzer, err))
	}
	s.facts[factKey{analyzer, ObjectKey(obj), factTypeName(fact)}] = fact
}

// ImportObjectFact copies the stored fact for obj of fact's concrete type
// into *fact and reports whether one existed.
func (s *FactSet) ImportObjectFact(analyzer string, obj types.Object, fact Fact) bool {
	if err := validateFactType(fact); err != nil {
		panic(fmt.Sprintf("analysis: ImportObjectFact(%s): %v", analyzer, err))
	}
	stored, ok := s.facts[factKey{analyzer, ObjectKey(obj), factTypeName(fact)}]
	if ok {
		reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

// gobFact is the serialized form of one fact. The concrete Fact type
// travels through the gob interface mechanism, so every fact type must be
// registered (RegisterFactTypes) before Encode or Decode.
type gobFact struct {
	Analyzer string
	Object   string
	Fact     Fact
}

// Encode serializes every fact in the set into a deterministic byte
// stream: facts are sorted by analyzer, object and type, so identical
// analyses produce identical vetx bytes.
func (s *FactSet) Encode() ([]byte, error) {
	out := make([]gobFact, 0, len(s.facts))
	for k, f := range s.facts {
		out = append(out, gobFact{Analyzer: k.analyzer, Object: k.object, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return factTypeName(a.Fact) < factTypeName(b.Fact)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode merges a previously encoded fact stream into s. Unknown fact
// types are an error: drivers must RegisterFactTypes for every analyzer
// they run before decoding.
func (s *FactSet) Decode(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var in []gobFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return fmt.Errorf("analysis: decoding facts: %w", err)
	}
	for _, gf := range in {
		if gf.Fact == nil {
			return fmt.Errorf("analysis: decoded nil fact for %s/%s", gf.Analyzer, gf.Object)
		}
		s.facts[factKey{gf.Analyzer, gf.Object, factTypeName(gf.Fact)}] = gf.Fact
	}
	return nil
}

// RegisterFactTypes registers every fact type declared by the analyzers
// with gob, enabling FactSet serialization. Safe to call more than once
// with the same analyzers.
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// factTypeName returns the stable name of a fact's concrete type,
// e.g. "*errlint.ErrFact".
func factTypeName(f Fact) string {
	return reflect.TypeOf(f).String()
}

// validateFactType checks that a fact value is usable: a non-nil pointer
// to a struct.
func validateFactType(f Fact) error {
	if f == nil {
		return fmt.Errorf("nil fact")
	}
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("fact type %s is not a pointer to struct", t)
	}
	return nil
}
