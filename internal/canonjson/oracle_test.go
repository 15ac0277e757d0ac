package canonjson_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/canonjson"
	"repro/internal/canonjson/canonjsontest"
)

// leaf holds one value of every kind the encoder formats itself.
type leaf struct {
	S   string  `json:"s"`
	F   float64 `json:"f"`
	I   int64   `json:"i"`
	U   uint64  `json:"u"`
	B   bool    `json:"b"`
	Opt string  `json:"opt,omitempty"`
	Raw int     // no tag: the Go name is the JSON name
	Bad string  `json:"-"`
}

// tree nests leaves in every container the encoder walks.
type tree struct {
	Leaf   leaf             `json:"leaf"`
	Ptr    *leaf            `json:"ptr"`
	Slice  []leaf           `json:"slice"`
	Map    map[string]leaf  `json:"map"`
	Floats []float64        `json:"floats,omitempty"`
	Any    any              `json:"any"`
	Nested map[string][]int `json:"nested"`
	A1     int              `json:"a!"`
	A      int              `json:"a"`
	Lt     int              `json:"<"`
}

// histogramLike is a json.Marshaler like stats.Histogram.
type histogramLike struct{ buckets []uint64 }

func (h *histogramLike) MarshalJSON() ([]byte, error) { return json.Marshal(h.buckets) }

type withMarshaler struct {
	H     *histogramLike `json:"h"`
	Nil   *histogramLike `json:"nil"`
	Inner *histogramLike `json:"inner,omitempty"`
	Obj   rawObject      `json:"obj"`
}

// rawObject returns an object with unsorted keys and spacing.
type rawObject struct{}

func (rawObject) MarshalJSON() ([]byte, error) {
	return []byte(` {"z": [1, 2.50, {}], "a": {"y": null, "b": "< >"}, "e": []} `), nil
}

func TestMatchesOracleEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1e-7, -1e-7, 1e-6, 1e21, 1e20, 1e-9, 1.5e-10, 1e100, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3} {
		canonjsontest.Check(t, "float", leaf{F: f})
	}
	for _, s := range []string{"", "plain", "<>&", "a<b", "  ", "\xff", "a\xc3", "\xed\xa0\x80",
		"\x00\n\t\r", "\x7f", "\u00e9", "\ufffd", "\u2028\u2029", `"\`, strings.Repeat("x", 300)} {
		canonjsontest.Check(t, "string "+s, leaf{S: s, Opt: s})
		canonjsontest.Check(t, "map key "+s, map[string]int{s: 1, "m": 2})
	}
	// Keys that collide once invalid UTF-8 is repaired keep the last.
	canonjsontest.Check(t, "colliding keys", map[string]int{"\xff": 1, "\xfe": 2, "\ufffd": 3, "a": 4})
	for _, i := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		canonjsontest.Check(t, "int", leaf{I: i, U: uint64(i)})
	}
	canonjsontest.Check(t, "nil containers", tree{})
	canonjsontest.Check(t, "empty containers", tree{Slice: []leaf{}, Map: map[string]leaf{}, Floats: []float64{}, Nested: map[string][]int{"x": {}, "y": nil}})
	canonjsontest.Check(t, "interface", tree{Any: map[string]any{"b": []any{1, "x", nil}, "a": leaf{}}})
	canonjsontest.Check(t, "marshaler", withMarshaler{H: &histogramLike{buckets: []uint64{3, 0, math.MaxUint64}}})
	canonjsontest.Check(t, "empty marshaler", withMarshaler{H: &histogramLike{}, Inner: &histogramLike{buckets: []uint64{}}})
	canonjsontest.Check(t, "nil top level", nil)
	canonjsontest.Check(t, "pointer top level", &leaf{S: "x"})
	canonjsontest.Check(t, "slice top level", []tree{{}, {Ptr: &leaf{}}})
	canonjsontest.Check(t, "NaN", leaf{F: math.NaN()})
	canonjsontest.Check(t, "Inf", []float64{math.Inf(-1)})
}

func TestMatchesOracleFilled(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		var v tree
		canonjsontest.Fill(&v, rand.New(rand.NewSource(seed)))
		canonjsontest.Check(t, "tree", v)
	}
}

func TestUnsupportedShapesFail(t *testing.T) {
	type embedded struct{ leaf }
	type stringOpt struct {
		N int `json:"n,string"`
	}
	type badName struct {
		N int `json:"n\"q"`
	}
	type dup struct {
		A int `json:"X"`
		X int
	}
	for _, v := range []any{
		embedded{},
		stringOpt{},
		badName{},
		dup{},
		map[int]int{1: 1},
		[]byte("x"),
		json.Number("1"),
		struct{ C chan int }{},
		[2]int{},
		float32(1),
	} {
		if got, err := canonjson.Marshal(v); err == nil {
			t.Errorf("Marshal(%T) = %q, want an error", v, got)
		}
	}
	// A nil pointer never reaches its element's encoder.
	if _, err := canonjson.Marshal(struct{ P *embedded }{}); err != nil {
		t.Errorf("nil pointer to an unsupported type: %v", err)
	}
}

func TestCycleFails(t *testing.T) {
	type node struct{ Next *node }
	n := &node{}
	n.Next = n
	if _, err := canonjson.Marshal(n); err == nil {
		t.Error("a cyclic value encoded without error")
	}
}

// FuzzCanonJSON checks a fuzzed string, float, integer and bool nested
// in a struct, a slice and a map against the oracle.
func FuzzCanonJSON(f *testing.F) {
	f.Add("plain", 0.5, int64(7), true)
	f.Add("<>&\u2028", 1e-7, int64(-1), false)
	f.Add("\xff\xfe", 1e21, int64(math.MinInt64), true)
	f.Add("", math.Copysign(0, -1), int64(0), false)
	f.Fuzz(func(t *testing.T, s string, fl float64, i int64, b bool) {
		l := leaf{S: s, F: fl, I: i, U: uint64(i), B: b, Opt: s}
		canonjsontest.Check(t, "fuzz", tree{
			Leaf:   l,
			Ptr:    &l,
			Slice:  []leaf{l, {}},
			Map:    map[string]leaf{s: l, "k": {}},
			Floats: []float64{fl},
			Any:    []any{s, fl, i, b},
			Nested: map[string][]int{s: {int(i)}},
		})
	})
}

// TestConcurrentFirstUse encodes a recursive type, never encoded before,
// from several goroutines at once: the encoder cache is built under
// concurrent use when a daemon's first requests arrive together.
func TestConcurrentFirstUse(t *testing.T) {
	type node struct {
		Name string           `json:"name"`
		Kids []*node          `json:"kids"`
		Tags map[string]*node `json:"tags,omitempty"`
	}
	v := &node{Name: "root", Kids: []*node{{Name: "a"}, {Name: "b<"}}, Tags: map[string]*node{"t": {Name: "c"}}}
	want, err := canonjsontest.Oracle(v)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := canonjson.Marshal(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent Marshal = %q, %v; want %q", got, err, want)
			}
		}()
	}
	wg.Wait()
}
