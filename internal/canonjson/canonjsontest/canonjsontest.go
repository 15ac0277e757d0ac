// Package canonjsontest holds the reference that canonjson.Marshal is
// tested against: the encode, reparse and render round trip Marshal
// replaced. Marshal must produce exactly its bytes for every value the
// repository encodes. Fill generates such values for a differential
// test. Only tests import this package.
package canonjsontest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/canonjson"
)

// Oracle encodes v with json.Marshal, reparses the bytes with numbers
// kept verbatim, and re-renders the document with sorted keys and tab
// indentation.
func Oracle(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("oracle: reparse: %w", err)
	}
	var buf bytes.Buffer
	if err := render(&buf, doc, 0); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

func render(buf *bytes.Buffer, v any, depth int) error {
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			buf.WriteString("{}")
			return nil
		}
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteString("{\n")
		for i, k := range keys {
			indent(buf, depth+1)
			if err := renderString(buf, k); err != nil {
				return err
			}
			buf.WriteString(": ")
			if err := render(buf, v[k], depth+1); err != nil {
				return err
			}
			if i < len(keys)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		indent(buf, depth)
		buf.WriteByte('}')
	case []any:
		if len(v) == 0 {
			buf.WriteString("[]")
			return nil
		}
		buf.WriteString("[\n")
		for i, e := range v {
			indent(buf, depth+1)
			if err := render(buf, e, depth+1); err != nil {
				return err
			}
			if i < len(v)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		indent(buf, depth)
		buf.WriteByte(']')
	case string:
		return renderString(buf, v)
	case json.Number:
		buf.WriteString(v.String())
	case bool:
		if v {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case nil:
		buf.WriteString("null")
	default:
		return fmt.Errorf("oracle: unexpected reparsed type %T", v)
	}
	return nil
}

func renderString(buf *bytes.Buffer, s string) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	buf.Write(b)
	return nil
}

func indent(buf *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		buf.WriteByte('\t')
	}
}

// Check fails t unless canonjson.Marshal(v) and Oracle(v) give the same
// bytes, or both fail.
func Check(t testing.TB, label string, v any) {
	t.Helper()
	got, gerr := canonjson.Marshal(v)
	want, werr := Oracle(v)
	switch {
	case gerr != nil && werr != nil:
	case gerr != nil || werr != nil:
		t.Errorf("%s: Marshal error %v, oracle error %v", label, gerr, werr)
	case !bytes.Equal(got, want):
		t.Errorf("%s: Marshal differs from the oracle\n got: %q\nwant: %q", label, got, want)
	}
}

// Edge values Fill draws from, besides random ones.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 123456789.125, 5e-324, math.MaxFloat64, 2.5e-9}
	edgeStrings = []string{"", "plain", "<a>&b", "line\u2028sep\u2029", "bad\xffutf8\xfe", "tab\t\"q\"\\",
		"\u00e9", "\x00\x1f\x7f", "\ufffd"}
)

// Fill sets every exported field reachable from ptr to values drawn by
// r: edge and random numbers and strings, nil, empty and filled slices
// and maps, nil and set pointers. Unexported fields stay zero.
func Fill(ptr any, r *rand.Rand) {
	fill(reflect.ValueOf(ptr).Elem(), r, 0)
}

func fill(v reflect.Value, r *rand.Rand, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := v.Type().Bits()
		switch r.Intn(4) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(-1 << (bits - 1))
		case 2:
			v.SetInt(1<<(bits-1) - 1)
		default:
			v.SetInt(int64(r.Uint64()) >> (64 - bits))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		bits := v.Type().Bits()
		switch r.Intn(3) {
		case 0:
			v.SetUint(0)
		case 1:
			v.SetUint(math.MaxUint64 >> (64 - bits))
		default:
			v.SetUint(r.Uint64() >> (64 - bits))
		}
	case reflect.Float64:
		if r.Intn(2) == 0 {
			v.SetFloat(edgeFloats[r.Intn(len(edgeFloats))])
		} else {
			v.SetFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	case reflect.String:
		if r.Intn(2) == 0 {
			v.SetString(edgeStrings[r.Intn(len(edgeStrings))])
		} else {
			b := make([]byte, r.Intn(8))
			r.Read(b)
			v.SetString(string(b))
		}
	case reflect.Pointer:
		if depth > 4 || r.Intn(4) == 0 {
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), r, depth+1)
		v.Set(p)
	case reflect.Slice:
		switch n := r.Intn(4); {
		case n == 0 || depth > 4:
		case n == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < s.Len(); i++ {
				fill(s.Index(i), r, depth+1)
			}
			v.Set(s)
		}
	case reflect.Map:
		switch n := r.Intn(4); {
		case n == 0 || depth > 4:
		default:
			m := reflect.MakeMap(v.Type())
			for i := 1; i < n; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				fill(k, r, depth+1)
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e, r, depth+1)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), r, depth+1)
			}
		}
	}
}
