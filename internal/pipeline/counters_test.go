package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// statsUntabled are the numeric Stats fields the counter table leaves
// out: simulated time, which is signed, and host telemetry, which
// measures the simulator rather than the simulated machine.
var statsUntabled = map[string]bool{"Cycles": true, "HostAllocs": true, "HostWallSeconds": true}

// numbered returns synthetic Stats whose i-th table counter holds
// mul·(i+1), so every counter is nonzero and differs from the others.
func numbered(mul uint64) Stats {
	s := Stats{Config: "c", Workload: "w", Cycles: int64(5 * mul), IssuedPerCycle: stats.NewHistogram(8)}
	for i, c := range counters {
		*c.of(&s) = mul * uint64(i+1)
	}
	return s
}

// TestCountersCoverStats walks Stats by reflection, cache counters
// included. Every numeric field must be in the counter table or
// allowlisted, and each table entry must write a field no other entry
// writes, so a new counter cannot be left out of SubStats, WeightStats
// or DiffStats, and two entries cannot alias one field.
func TestCountersCoverStats(t *testing.T) {
	var s Stats
	for i, c := range counters {
		*c.of(&s) = uint64(i + 1)
	}
	owner := make(map[uint64]string) // written value → field holding it
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch k := f.Kind(); {
			case k == reflect.Struct:
				walk(f, name+".")
			case statsUntabled[name]:
			case k == reflect.Uint64 && f.Uint() != 0:
				owner[f.Uint()] = name
			case k >= reflect.Int && k <= reflect.Float64:
				t.Errorf("Stats.%s is a numeric field the counter table does not list", name)
			}
		}
	}
	walk(reflect.ValueOf(s), "")
	for i, c := range counters {
		if _, ok := owner[uint64(i+1)]; !ok {
			t.Errorf("counter %q writes no field of its own", c.name)
		}
	}
}

// TestSubStatsEveryCounter cuts a window out of two synthetic snapshots
// whose counters all differ, so a counter SubStats skips or subtracts
// into the wrong field fails here, and checks that each counter going
// backwards is reported by name.
func TestSubStatsEveryCounter(t *testing.T) {
	warm, end := numbered(1), numbered(3)
	d, err := SubStats(end, warm)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counters {
		if got, want := *c.of(&d), 2*uint64(i+1); got != want {
			t.Errorf("%s = %d, want %d", c.name, got, want)
		}
	}
	for _, c := range counters {
		back := end
		*c.of(&back) = 0
		if _, err := SubStats(back, warm); err == nil || !strings.Contains(err.Error(), c.name+" went backwards") {
			t.Errorf("%s going backwards: err = %v", c.name, err)
		}
	}
}

// TestDiffStats checks that DiffStats names the labels, cycles, each
// counter and an issue-histogram bucket shift that keeps the total and
// the mean, and that it ignores host telemetry.
func TestDiffStats(t *testing.T) {
	a := numbered(1)
	a.IssuedPerCycle.AddN(2, 2)
	b := a
	b.HostAllocs, b.HostWallSeconds = 7, 1.5
	if err := DiffStats(b, a); err != nil {
		t.Errorf("host telemetry compared: %v", err)
	}
	b = a
	b.Config = "other"
	if err := DiffStats(b, a); err == nil || !strings.HasPrefix(err.Error(), "config") {
		t.Errorf("config label differs: err = %v", err)
	}
	b = a
	b.Workload = "other"
	if err := DiffStats(b, a); err == nil || !strings.HasPrefix(err.Error(), "workload") {
		t.Errorf("workload label differs: err = %v", err)
	}
	b = a
	b.Cycles++
	if err := DiffStats(b, a); err == nil || !strings.HasPrefix(err.Error(), "cycles") {
		t.Errorf("cycles off by one: err = %v", err)
	}
	for _, c := range counters {
		b := a
		*c.of(&b)++
		if err := DiffStats(b, a); err == nil || !strings.HasPrefix(err.Error(), c.name+" =") {
			t.Errorf("%s off by one: err = %v", c.name, err)
		}
	}
	b = a
	b.IssuedPerCycle = stats.NewHistogram(8)
	b.IssuedPerCycle.AddN(1, 1)
	b.IssuedPerCycle.AddN(3, 1)
	if err := DiffStats(b, a); err == nil || !strings.Contains(err.Error(), "bucket 1") {
		t.Errorf("issue histogram shifted at equal total and mean: err = %v", err)
	}
	b.IssuedPerCycle = stats.NewHistogram(16)
	b.IssuedPerCycle.AddN(2, 2)
	if err := DiffStats(b, a); err != nil {
		t.Errorf("wider histogram with the same samples: %v", err)
	}
	b.IssuedPerCycle.AddN(12, 1)
	if err := DiffStats(b, a); err == nil || !strings.Contains(err.Error(), "bucket 12") {
		t.Errorf("sample past the narrower histogram's max: err = %v", err)
	}
}
