// Package canonjson renders values as canonical JSON: object keys are
// sorted, indentation is a single tab per level, and the output ends in
// one newline. Every artifact the simulator persists or emits as JSON —
// run-cache entries, -metrics-json dumps, daemon responses, benchmark
// results — goes through this encoder, so byte-identical inputs produce
// byte-identical files regardless of struct field order or map iteration
// order, and artifacts can be diffed and content-addressed.
//
// Marshal walks the value once by reflection, with a field plan cached
// per type. It writes exactly the bytes that encoding with json.Marshal,
// reparsing and re-rendering with sorted keys would: field names and
// omitempty follow encoding/json, numbers are formatted as encoding/json
// formats them (integers verbatim, so uint64 counters survive
// untouched), and strings are escaped by encoding/json. Only a value
// implementing json.Marshaler is still decoded: its output is parsed and
// re-rendered canonically. Shapes no emitted type uses
// (embedded structs, ",string" and ",omitzero" tags, non-string map
// keys, []byte, encoding.TextMarshaler) are errors, not guesses.
package canonjson

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Marshal encodes v canonically.
func Marshal(v any) ([]byte, error) {
	b := make([]byte, 0, 1024)
	b, err := appendValue(b, reflect.ValueOf(v), 0)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// maxDepth bounds nesting, as encoding/json's cycle detection does: a
// self-referencing value is an error, not a stack overflow.
const maxDepth = 1000

var errTooDeep = fmt.Errorf("canonjson: value nested deeper than %d levels (a cycle?)", maxDepth)

// encoderFunc appends v, indented for nesting depth, to b.
type encoderFunc func(b []byte, v reflect.Value, depth int) ([]byte, error)

func appendValue(b []byte, v reflect.Value, depth int) ([]byte, error) {
	if !v.IsValid() {
		return append(b, "null"...), nil
	}
	return typeEncoder(v.Type())(b, v, depth)
}

var encoders sync.Map // reflect.Type -> encoderFunc

// typeEncoder returns t's cached encoder, building it on first use. A
// recursive type finds its own placeholder while being built, which
// waits for the real encoder.
func typeEncoder(t reflect.Type) encoderFunc {
	if f, ok := encoders.Load(t); ok {
		return f.(encoderFunc)
	}
	var (
		wg sync.WaitGroup
		f  encoderFunc
	)
	wg.Add(1)
	fi, loaded := encoders.LoadOrStore(t, encoderFunc(func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		wg.Wait()
		return f(b, v, depth)
	}))
	if loaded {
		return fi.(encoderFunc)
	}
	f = newTypeEncoder(t)
	wg.Done()
	encoders.Store(t, f)
	return f
}

var (
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	numberType        = reflect.TypeFor[json.Number]()
)

// unsupported returns an encoder failing with why for every value of t.
func unsupported(t reflect.Type, why string) encoderFunc {
	err := fmt.Errorf("canonjson: unsupported type %v: %s", t, why)
	return func(b []byte, _ reflect.Value, _ int) ([]byte, error) { return b, err }
}

func newTypeEncoder(t reflect.Type) encoderFunc {
	if t.Kind() == reflect.Interface {
		// The dynamic value's own type decides, Marshaler or not.
		return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
			return appendValue(b, v.Elem(), depth)
		}
	}
	if t.Implements(marshalerType) {
		return marshalerEncoder
	}
	if t.Kind() != reflect.Pointer && reflect.PointerTo(t).Implements(marshalerType) {
		// encoding/json calls such a method only on addressable values.
		return unsupported(t, "json.Marshaler with a pointer receiver")
	}
	if t.Implements(textMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return unsupported(t, "encoding.TextMarshaler")
	}
	if t == numberType {
		return unsupported(t, "json.Number")
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) {
			return strconv.AppendBool(b, v.Bool()), nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) {
			return strconv.AppendInt(b, v.Int(), 10), nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) {
			return strconv.AppendUint(b, v.Uint(), 10), nil
		}
	case reflect.Float64:
		return floatEncoder
	case reflect.String:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) {
			return appendString(b, v.String()), nil
		}
	case reflect.Pointer:
		elem := typeEncoder(t.Elem())
		return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
			if v.IsNil() {
				return append(b, "null"...), nil
			}
			return elem(b, v.Elem(), depth)
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return unsupported(t, "byte slice")
		}
		return sliceEncoder(t)
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			return unsupported(t, "map key is not a string")
		}
		return mapEncoder(t)
	case reflect.Struct:
		return structEncoder(t)
	default:
		return unsupported(t, "no JSON form")
	}
}

// floatEncoder formats as encoding/json does: shortest round-trip
// digits, exponent form outside [1e-6, 1e21), and a two-digit negative
// exponent trimmed to one ("1e-07" becomes "1e-7").
func floatEncoder(b []byte, v reflect.Value, _ int) ([]byte, error) {
	f := v.Float()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("canonjson: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString writes s directly when encoding/json would write it
// unchanged (printable ASCII without '"', '\\', '<', '>' or '&') and
// hands every other string to encoding/json. An invalid UTF-8 byte
// becomes a literal U+FFFD, not the escape json.Marshal writes for it:
// that is what reparsing the escape and rendering it again produced.
func appendString(b []byte, s string) []byte {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			plain = false
			break
		}
	}
	if plain {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(validUTF8(s)) // a string always marshals
	return append(b, q...)
}

// validUTF8 replaces each byte of s that is not part of a valid UTF-8
// sequence with U+FFFD, as encoding/json does.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			sb.WriteRune(utf8.RuneError)
		} else {
			sb.WriteString(s[i : i+n])
		}
		i += n
	}
	return sb.String()
}

func indent(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, '\t')
	}
	return b
}

// openItem starts one array element or object member: the opening
// bracket before the first, a comma after the others, then the indent.
func openItem(b []byte, open byte, first bool, depth int) []byte {
	if first {
		b = append(b, open, '\n')
	} else {
		b = append(b, ",\n"...)
	}
	return indent(b, depth+1)
}

// closeItems ends an array or object; an empty one renders as a pair.
func closeItems(b []byte, open, close byte, empty bool, depth int) []byte {
	if empty {
		return append(b, open, close)
	}
	b = append(b, '\n')
	b = indent(b, depth)
	return append(b, close)
}

func sliceEncoder(t reflect.Type) encoderFunc {
	elem := typeEncoder(t.Elem())
	return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		if depth > maxDepth {
			return b, errTooDeep
		}
		n := v.Len()
		var err error
		for i := 0; i < n; i++ {
			b = openItem(b, '[', i == 0, depth)
			if b, err = elem(b, v.Index(i), depth+1); err != nil {
				return b, err
			}
		}
		return closeItems(b, '[', ']', n == 0, depth), nil
	}
}

func mapEncoder(t reflect.Type) encoderFunc {
	elem := typeEncoder(t.Elem())
	return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		if depth > maxDepth {
			return b, errTooDeep
		}
		members := make([]member, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			members = append(members, member{key: it.Key().String(), val: it.Value()})
		}
		members = canonicalMembers(members)
		var err error
		for i, m := range members {
			b = openItem(b, '{', i == 0, depth)
			b = append(appendString(b, m.key), ": "...)
			if b, err = elem(b, m.val, depth+1); err != nil {
				return b, err
			}
		}
		return closeItems(b, '{', '}', len(members) == 0, depth), nil
	}
}

type member struct {
	key string
	val reflect.Value
}

// canonicalMembers orders map members by key. Keys that are not valid
// UTF-8 are compared (and collide) as the U+FFFD-repaired strings the
// reparse saw; of colliding keys the last in encoding/json's order wins,
// as it did in the reparsed object.
func canonicalMembers(ms []member) []member {
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	repaired := false
	for i := range ms {
		if k := validUTF8(ms[i].key); k != ms[i].key {
			ms[i].key, repaired = k, true
		}
	}
	if !repaired {
		return ms
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	out := ms[:0]
	for i, m := range ms {
		if i+1 < len(ms) && ms[i+1].key == m.key {
			continue
		}
		out = append(out, m)
	}
	return out
}

// field is one struct field of a type's plan.
type field struct {
	name      string
	key       []byte // the rendered name and ": "
	index     int
	omitEmpty bool
	enc       encoderFunc
}

// structEncoder plans t's exported fields in JSON-name order once;
// encoding a value then walks the plan.
func structEncoder(t reflect.Type) encoderFunc {
	var fields []field
	names := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return unsupported(t, "embedded field "+sf.Name)
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		} else if !validName(name) {
			return unsupported(t, fmt.Sprintf("field %s: tag name %q", sf.Name, name))
		}
		omitEmpty := false
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "omitempty":
				omitEmpty = true
			case "string", "omitzero":
				return unsupported(t, fmt.Sprintf("field %s: option %q", sf.Name, o))
			}
		}
		if names[name] {
			return unsupported(t, "duplicate JSON name "+name)
		}
		names[name] = true
		fields = append(fields, field{
			name:      name,
			key:       append(appendString(nil, name), ": "...),
			index:     i,
			omitEmpty: omitEmpty,
			enc:       typeEncoder(sf.Type),
		})
	}
	slices.SortFunc(fields, func(a, b field) int { return strings.Compare(a.name, b.name) })
	return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if depth > maxDepth {
			return b, errTooDeep
		}
		first := true
		var err error
		for i := range fields {
			f := &fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			b = openItem(b, '{', first, depth)
			first = false
			b = append(b, f.key...)
			if b, err = f.enc(b, fv, depth+1); err != nil {
				return b, err
			}
		}
		return closeItems(b, '{', '}', first, depth), nil
	}
}

// validName reports whether encoding/json accepts name as a tag name
// (it would silently fall back to the Go field name otherwise).
func validName(name string) bool {
	for _, c := range name {
		if !strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) && !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}

// isEmpty is encoding/json's omitempty test.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float64:
		return v.Float() == 0
	case reflect.Interface, reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// marshalerEncoder renders a json.Marshaler's output canonically. This
// is the package's one decode: the method's bytes are opaque until
// parsed.
func marshalerEncoder(b []byte, v reflect.Value, depth int) ([]byte, error) {
	if v.Kind() == reflect.Pointer && v.IsNil() {
		return append(b, "null"...), nil
	}
	data, err := v.Interface().(json.Marshaler).MarshalJSON()
	if err != nil {
		return b, fmt.Errorf("canonjson: %v: MarshalJSON: %w", v.Type(), err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return b, fmt.Errorf("canonjson: %v: MarshalJSON output: %w", v.Type(), err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return b, fmt.Errorf("canonjson: %v: MarshalJSON output has data after its value", v.Type())
	}
	return render(b, doc, depth)
}

// render appends a decoded JSON document: map[string]any, []any,
// string, json.Number, bool or nil.
func render(b []byte, v any, depth int) ([]byte, error) {
	var err error
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			b = openItem(b, '{', i == 0, depth)
			b = append(appendString(b, k), ": "...)
			if b, err = render(b, v[k], depth+1); err != nil {
				return b, err
			}
		}
		return closeItems(b, '{', '}', len(keys) == 0, depth), nil
	case []any:
		for i, e := range v {
			b = openItem(b, '[', i == 0, depth)
			if b, err = render(b, e, depth+1); err != nil {
				return b, err
			}
		}
		return closeItems(b, '[', ']', len(v) == 0, depth), nil
	case string:
		return appendString(b, v), nil
	case json.Number:
		return append(b, v...), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case nil:
		return append(b, "null"...), nil
	default:
		return b, fmt.Errorf("canonjson: unexpected decoded type %T", v)
	}
}
