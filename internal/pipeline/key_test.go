package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// specCfg returns a fingerprintable Table 3 baseline configuration.
func specCfg(name string, spec core.SchedulerSpec) Config {
	c := cfg(name, 1, 0, nil)
	c.NewScheduler = nil
	c.Scheduler = &spec
	return c
}

func TestKeyIgnoresLabels(t *testing.T) {
	a := specCfg("alpha", core.WindowSpec(64))
	b := specCfg("beta", core.WindowSpec(64))
	ka, ok := a.Key()
	if !ok {
		t.Fatal("spec-built config not fingerprintable")
	}
	kb, _ := b.Key()
	if ka != kb {
		t.Errorf("renamed twins have different keys:\n%s\n%s", ka, kb)
	}
	// The FIFO bank's display name is a label too.
	f1 := specCfg("x", core.FIFOBankSpec(core.FIFOBankConfig{
		Name: "one", Clusters: 1, FIFOsPerCluster: 8, Depth: 8,
	}))
	f2 := specCfg("y", core.FIFOBankSpec(core.FIFOBankConfig{
		Name: "two", Clusters: 1, FIFOsPerCluster: 8, Depth: 8,
	}))
	k1, _ := f1.Key()
	k2, _ := f2.Key()
	if k1 != k2 {
		t.Errorf("renamed FIFO banks have different keys:\n%s\n%s", k1, k2)
	}
}

// keyNeutral are the Config fields that label or observe a run without
// changing its timing; Key ignores them, so renamed or instrumented
// copies of one machine share cached results.
var keyNeutral = map[string]bool{"Name": true, "RecordTimeline": true, "CheckInvariants": true}

// keyClosures are the opaque builder fields; setting one makes Key
// refuse, since a closure cannot be fingerprinted.
var keyClosures = map[string]bool{"NewScheduler": true}

// specLive classifies every leaf of core.SchedulerSpec under each kind:
// true feeds Key, false is inert under that kind and Key ignores it. The
// FIFO bank's Name is a display label under every kind.
var specLive = map[core.SchedKind]map[string]bool{
	core.SchedCentralWindow: {"Kind": true, "Size": true, "Clusters": false, "FIFO.Name": false,
		"FIFO.Clusters": false, "FIFO.FIFOsPerCluster": false, "FIFO.Depth": false, "FIFO.AnySlot": false, "FIFO.Policy": false},
	core.SchedExecSteered: {"Kind": true, "Size": true, "Clusters": true, "FIFO.Name": false,
		"FIFO.Clusters": false, "FIFO.FIFOsPerCluster": false, "FIFO.Depth": false, "FIFO.AnySlot": false, "FIFO.Policy": false},
	core.SchedRandomSelect: {"Kind": true, "Size": true, "Clusters": false, "FIFO.Name": false,
		"FIFO.Clusters": false, "FIFO.FIFOsPerCluster": false, "FIFO.Depth": false, "FIFO.AnySlot": false, "FIFO.Policy": false},
	core.SchedFIFOBank: {"Kind": true, "Size": false, "Clusters": false, "FIFO.Name": false,
		"FIFO.Clusters": true, "FIFO.FIFOsPerCluster": true, "FIFO.Depth": true, "FIFO.AnySlot": true, "FIFO.Policy": true},
}

// keyBase returns a fingerprintable configuration with every field that
// Key reads conditionally switched on: a named predictor, an explicit
// D-cache and an I-cache. Each call returns fresh pointers.
func keyBase(spec core.SchedulerSpec) Config {
	c := specCfg("base", spec)
	c.PerfectBPred = false
	c.Predictor = "bimodal"
	c.DCache = cache.Baseline()
	c.ICache = &cache.Config{SizeBytes: 16 << 10, Ways: 2, LineBytes: 32, HitCycles: 1, MissCycles: 6}
	return c
}

// TestKeySeparatesBehavior changes every settable leaf of Config in turn,
// and every leaf of the scheduler spec under every scheduler kind. A
// timing-relevant change must change Key, a neutral or inert one must
// not, and a closure must make Key refuse. A field that no rule here
// classifies fails the test, so a new field cannot silently alias two
// machines in the run cache.
func TestKeySeparatesBehavior(t *testing.T) {
	baseKey := keyOf(keyBase(core.WindowSpec(64)))
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		switch {
		case f.Name == "Scheduler":
			// Classified per kind below.
		case keyClosures[f.Name]:
			c := keyBase(core.WindowSpec(64))
			fv := reflect.ValueOf(&c).Elem().Field(i)
			fv.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value {
				panic("key test: closure called")
			}))
			if _, ok := c.Key(); ok {
				t.Errorf("%s: closure-built config reported a fingerprint", f.Name)
			}
		default:
			if f.Type.Kind() == reflect.Pointer {
				// Presence is behavior too: an I-cache differs from none.
				c := keyBase(core.WindowSpec(64))
				reflect.ValueOf(&c).Elem().Field(i).SetZero()
				if keyOf(c) == baseKey {
					t.Errorf("%s: nil did not change the key", f.Name)
				}
			}
			for _, path := range leafPaths(t, f.Type, f.Name) {
				c := keyBase(core.WindowSpec(64))
				mutateLeaf(t, reflect.ValueOf(&c).Elem(), path)
				k, ok := c.Key()
				switch {
				case !ok:
					t.Errorf("%s: changed config not fingerprintable", path)
				case keyNeutral[f.Name] && k != baseKey:
					t.Errorf("%s: neutral field changed the key", path)
				case !keyNeutral[f.Name] && k == baseKey:
					t.Errorf("%s: behavior change did not change the key", path)
				}
			}
		}
	}

	// The scheduler spec is a tagged union: which leaves feed Key depends
	// on Kind. Kinds are enumerated until Key rejects one, so a new kind
	// needs a specLive row.
	nKinds := core.SchedKind(0)
	for specKeys(core.SchedulerSpec{Kind: nKinds}) {
		nKinds++
	}
	if len(specLive) != int(nKinds) {
		t.Errorf("specLive classifies %d scheduler kinds, core defines %d", len(specLive), nKinds)
	}
	for kind := core.SchedKind(0); kind < nKinds; kind++ {
		spec := core.SchedulerSpec{Kind: kind, Size: 64, Clusters: 2, FIFO: core.FIFOBankConfig{
			Name: "bank", Clusters: 2, FIFOsPerCluster: 4, Depth: 8, Policy: core.SteerDependence,
		}}
		kindKey := keyOf(keyBase(spec))
		for _, path := range leafPaths(t, reflect.TypeOf(spec), "") {
			live, classified := specLive[kind][path]
			if !classified {
				t.Errorf("scheduler kind %d: spec field %s is not classified in specLive", kind, path)
				continue
			}
			s := spec
			if path == "Kind" {
				s.Kind = (kind + 1) % nKinds
			} else {
				mutateLeaf(t, reflect.ValueOf(&s).Elem(), path)
			}
			k := keyOf(keyBase(s))
			if live && k == kindKey {
				t.Errorf("scheduler kind %d: changing %s did not change the key", kind, path)
			}
			if !live && k != kindKey {
				t.Errorf("scheduler kind %d: changing inert %s changed the key", kind, path)
			}
		}
	}
}

// keyOf returns c's key ("" when Key refuses).
func keyOf(c Config) string {
	k, _ := c.Key()
	return k
}

// specKeys reports whether SchedulerSpec.Key accepts the spec's kind.
func specKeys(s core.SchedulerSpec) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	s.Key()
	return true
}

// leafPaths returns the dotted paths of the settable leaves under a
// value of type t named prefix, descending into structs and pointers to
// structs. A field of any other composite kind is unclassified and fails
// the test.
func leafPaths(t *testing.T, typ reflect.Type, prefix string) []string {
	t.Helper()
	join := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}
	switch typ.Kind() {
	case reflect.Pointer:
		return leafPaths(t, typ.Elem(), prefix)
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			out = append(out, leafPaths(t, typ.Field(i).Type, join(typ.Field(i).Name))...)
		}
		return out
	case reflect.Bool, reflect.String, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return []string{prefix}
	default:
		t.Errorf("%s: field of kind %s is not classified by the key test", prefix, typ.Kind())
		return nil
	}
}

// mutateLeaf changes the leaf at the dotted path under v: numbers grow
// by one, booleans flip and strings lengthen. Pointers on the path must
// be non-nil.
func mutateLeaf(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	default:
		t.Fatalf("%s: cannot change a %s", path, v.Kind())
	}
}

func TestKeyNormalizesDefaultDCache(t *testing.T) {
	a := specCfg("a", core.WindowSpec(64)) // zero DCache → baseline at New
	b := specCfg("b", core.WindowSpec(64))
	b.DCache = cache.Baseline()
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka != kb {
		t.Errorf("implicit and explicit baseline D-cache differ:\n%s\n%s", ka, kb)
	}
}

func TestKeyRefusesOpaqueConfigs(t *testing.T) {
	c := cfg("closure", 1, 0, window64)
	if _, ok := c.Key(); ok {
		t.Error("closure-built config reported a fingerprint")
	}
	d := specCfg("named-predictor", core.WindowSpec(64))
	d.PerfectBPred = false
	d.Predictor = "gshare"
	if _, ok := d.Key(); !ok {
		t.Error("named-predictor config not fingerprintable")
	}
}

// TestSpecConfigRuns checks that a spec-built configuration simulates
// identically to its closure-built twin.
func TestSpecConfigRuns(t *testing.T) {
	p := mustProgram(t, chainSrc(64))
	run := func(c Config) Stats {
		sim, err := New(c, p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := run(cfg("closure", 1, 0, window64))
	b := run(specCfg("spec", core.WindowSpec(64)))
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Mispredicts != b.Mispredicts {
		t.Errorf("spec-built run diverged: %+v vs %+v", a, b)
	}
}

func TestUnknownPredictorRejected(t *testing.T) {
	c := specCfg("badpred", core.WindowSpec(64))
	c.PerfectBPred = false
	c.Predictor = "oracle9000"
	if _, err := New(c, mustProgram(t, chainSrc(8))); err == nil {
		t.Error("unknown predictor name accepted")
	}
}
