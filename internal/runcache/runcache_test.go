package runcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/canonjson"
	"repro/internal/canonjson/canonjsontest"
	"repro/internal/errclass"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// checkStats asserts Stats.Check on each cache's counters.
func checkStats(t *testing.T, caches ...*Cache) {
	t.Helper()
	for _, c := range caches {
		cs := c.Stats()
		if err := cs.Check(); err != nil {
			t.Errorf("%v (%+v)", err, cs)
		}
	}
}

// TestStatsCheck pins the invariant table itself: a clean snapshot
// passes and each over-count is named.
func TestStatsCheck(t *testing.T) {
	ok := Stats{Hits: 5, Coalesced: 2, DiskHits: 3, Misses: 4, Evictions: 7}
	if err := ok.Check(); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		bad  func(*Stats)
		want string
	}{
		{"evictions", func(s *Stats) { s.Evictions = 8 }, "evictions"},
		{"evictions without disk", func(s *Stats) { s.DiskHits, s.Evictions = 0, 5 }, "evictions"},
	} {
		s := ok
		tc.bad(&s)
		if err := s.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func fakeStats(cycles int64) pipeline.Stats {
	h := stats.NewHistogram(8)
	h.Add(3)
	h.Add(5)
	return pipeline.Stats{
		Config:         "cfg",
		Workload:       "wl",
		Cycles:         cycles,
		Committed:      uint64(2 * cycles),
		IssuedPerCycle: h,
	}
}

func TestDoMemoizes(t *testing.T) {
	c := New()
	var calls int32
	compute := func() (pipeline.Stats, error) {
		atomic.AddInt32(&calls, 1)
		return fakeStats(100), nil
	}
	st, hit, err := c.Do("k", compute)
	if err != nil || hit || st.Cycles != 100 {
		t.Fatalf("first Do = %+v, hit=%v, err=%v", st, hit, err)
	}
	st, hit, err = c.Do("k", compute)
	if err != nil || !hit || st.Cycles != 100 {
		t.Fatalf("second Do = %+v, hit=%v, err=%v", st, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	cs := c.Stats()
	if cs.Misses != 1 || cs.Hits != 1 || cs.Saved() != 1 || cs.Lookups() != 2 {
		t.Errorf("stats = %+v", cs)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New()
	var calls int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := c.Do("k", func() (pipeline.Stats, error) {
				atomic.AddInt32(&calls, 1)
				<-release
				return fakeStats(7), nil
			})
			if err != nil || st.Cycles != 7 {
				t.Errorf("Do = %+v, %v", st, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute ran %d times under concurrency, want 1", calls)
	}
	cs := c.Stats()
	if cs.Misses != 1 || cs.Hits+cs.Coalesced != n-1 {
		t.Errorf("stats = %+v", cs)
	}
	checkStats(t, c)
}

// TestDoComputeRunsUnlocked pins that Do runs compute outside the cache
// mutex: while one key's compute is blocked, Stats, Len and a Do on
// another key each return.
func TestDoComputeRunsUnlocked(t *testing.T) {
	c := New()
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.Do("a", func() (pipeline.Stats, error) {
			close(started)
			<-release
			return fakeStats(1), nil
		})
	}()
	<-started
	defer func() {
		close(release)
		<-done
	}()
	for _, probe := range []struct {
		name string
		call func()
	}{
		{"Stats", func() { c.Stats() }},
		{"Len", func() { c.Len() }},
		{`Do("b")`, func() {
			c.Do("b", func() (pipeline.Stats, error) { return fakeStats(2), nil })
		}},
	} {
		returned := make(chan struct{})
		go func() {
			probe.call()
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf(`%s blocked while Do("a")'s compute was running`, probe.name)
		}
	}
}

func TestDoMemoizesErrors(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	var calls int32
	for i := 0; i < 2; i++ {
		_, _, err := c.Do("bad", func() (pipeline.Stats, error) {
			atomic.AddInt32(&calls, 1)
			return pipeline.Stats{}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Errorf("failing compute ran %d times, want 1 (errors memoized)", calls)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want := fakeStats(42)
	if _, _, err := c.Do("k", func() (pipeline.Stats, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the result without
	// computing, and the histogram survives the JSON round trip.
	c2 := New()
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	st, hit, err := c2.Do("k", func() (pipeline.Stats, error) {
		t.Fatal("compute called despite disk entry")
		return pipeline.Stats{}, nil
	})
	if err != nil || !hit {
		t.Fatalf("disk Do: hit=%v err=%v", hit, err)
	}
	if st.Cycles != want.Cycles || st.Committed != want.Committed {
		t.Errorf("disk stats = %+v, want %+v", st, want)
	}
	if st.IssuedPerCycle == nil || st.IssuedPerCycle.Total() != 2 || st.IssuedPerCycle.Count(3) != 1 {
		t.Errorf("histogram lost in round trip: %+v", st.IssuedPerCycle)
	}
	if cs := c2.Stats(); cs.DiskHits != 1 || cs.Misses != 0 {
		t.Errorf("stats = %+v", cs)
	}

	// A different key does not collide with the stored entry.
	var computed bool
	if _, hit, _ := c2.Do("other", func() (pipeline.Stats, error) {
		computed = true
		return fakeStats(1), nil
	}); hit || !computed {
		t.Errorf("unrelated key served from disk: hit=%v computed=%v", hit, computed)
	}
}

// TestDiskConcurrentWriters runs two caches over one directory writing
// the same keys concurrently — the regression for the shared fixed-name
// temp file, which let one process rename another's half-written JSON
// into place. Every surviving file must be complete and loadable.
func TestDiskConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	caches := [2]*Cache{New(), New()}
	for _, c := range caches {
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 16
	var wg sync.WaitGroup
	for _, c := range caches {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := "key" + string(rune('a'+k))
				if _, _, err := c.Do(key, func() (pipeline.Stats, error) {
					return fakeStats(int64(k + 1)), nil
				}); err != nil {
					t.Errorf("Do(%s): %v", key, err)
				}
			}
		}()
	}
	wg.Wait()
	checkStats(t, caches[:]...)

	// No temp files left behind, and every entry round-trips.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("stale temp file %s left in cache dir", e.Name())
		}
	}
	fresh := New()
	if err := fresh.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := "key" + string(rune('a'+k))
		st, hit, err := fresh.Do(key, func() (pipeline.Stats, error) {
			t.Errorf("key %s not persisted", key)
			return pipeline.Stats{}, nil
		})
		if err != nil || !hit || st.Cycles != int64(k+1) {
			t.Errorf("reload %s: hit=%v cycles=%d err=%v", key, hit, st.Cycles, err)
		}
	}
	checkStats(t, fresh)
}

// TestDiskDropsUnusableFiles: a file whose stored key mismatches (hash
// collision) or whose JSON is torn must be deleted on load, not silently
// ignored, so the slot can be rewritten.
func TestDiskDropsUnusableFiles(t *testing.T) {
	for name, contents := range map[string]string{
		"mismatched key": `{"key":"some other key","stats":{}}`,
		"torn JSON":      `{"key":"k","st`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := diskPath(dir, "k")
			if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
			c := New()
			if err := c.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			st, hit, err := c.Do("k", func() (pipeline.Stats, error) {
				return fakeStats(9), nil
			})
			if err != nil || hit || st.Cycles != 9 {
				t.Fatalf("Do over bad file: st=%+v hit=%v err=%v", st, hit, err)
			}
			// The bad file was replaced by the fresh result.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("entry not rewritten: %v", err)
			}
			var de diskEntry
			if err := json.Unmarshal(data, &de); err != nil || de.Key != "k" {
				t.Errorf("rewritten entry unusable: key=%q err=%v", de.Key, err)
			}
		})
	}
}

// TestDoPanicUnblocksWaiters is the regression for the daemon-fatal
// deadlock: a panicking compute never closed e.done, so the key was
// permanently poisoned — every coalesced waiter hung forever and every
// later lookup joined them. The panic must still propagate to compute's
// caller, waiters must receive an error, and the key must stay usable.
func TestDoPanicUnblocksWaiters(t *testing.T) {
	c := New()
	entered := make(chan struct{})
	release := make(chan struct{})
	panicker := make(chan any, 1)
	go func() {
		defer func() { panicker <- recover() }()
		c.Do("k", func() (pipeline.Stats, error) {
			close(entered)
			<-release
			panic("simulator bug")
		})
	}()
	<-entered
	// A second goroutine coalesces onto the in-flight computation.
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (pipeline.Stats, error) {
			t.Error("waiter's compute invoked for an in-flight key")
			return pipeline.Stats{}, nil
		})
		waiterErr <- err
	}()
	// Let the waiter coalesce before unleashing the panic.
	for {
		if cs := c.Stats(); cs.Coalesced == 1 {
			break
		}
	}
	close(release)
	if r := <-panicker; r == nil || r.(string) != "simulator bug" {
		t.Fatalf("panic did not propagate to compute's caller: %v", r)
	}
	err := <-waiterErr
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("coalesced waiter got err=%v, want a panic-reporting error", err)
	}
	// The key is not poisoned: a later lookup recomputes successfully.
	st, hit, err := c.Do("k", func() (pipeline.Stats, error) { return fakeStats(5), nil })
	if err != nil || hit || st.Cycles != 5 {
		t.Fatalf("lookup after panic: st=%+v hit=%v err=%v", st, hit, err)
	}
}

// TestDoTransientErrorsRetry: a transient (environmental) failure is
// delivered but not memoized, in memory or on disk, so the key recovers
// on retry — in a long-lived server a momentary ENOSPC must not brick a
// key until restart. Deterministic errors stay memoized
// (TestDoMemoizesErrors).
func TestDoTransientErrorsRetry(t *testing.T) {
	for name, transientErr := range map[string]error{
		"marked":        Transient(errors.New("store unavailable")),
		"os.PathError":  &os.PathError{Op: "write", Path: "trace", Err: syscall.ENOSPC},
		"syscall.Errno": fmt.Errorf("capture: %w", syscall.EMFILE),
	} {
		t.Run(name, func(t *testing.T) {
			c := New()
			dir := t.TempDir()
			if err := c.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			entries := func() []string {
				names, _ := filepath.Glob(filepath.Join(dir, "*"))
				return names
			}
			var calls int32
			fail := true
			compute := func() (pipeline.Stats, error) {
				atomic.AddInt32(&calls, 1)
				if fail {
					return pipeline.Stats{}, transientErr
				}
				return fakeStats(11), nil
			}
			if _, _, err := c.Do("k", compute); !errors.Is(err, transientErr) && err == nil {
				t.Fatalf("first Do err = %v", err)
			}
			if c.Len() != 0 {
				t.Fatalf("transient failure left %d memoized entries", c.Len())
			}
			if left := entries(); len(left) != 0 {
				t.Fatalf("transient failure left files in the store: %v", left)
			}
			fail = false
			st, hit, err := c.Do("k", compute)
			if err != nil || hit || st.Cycles != 11 {
				t.Fatalf("retry after transient failure: st=%+v hit=%v err=%v", st, hit, err)
			}
			if calls != 2 {
				t.Errorf("compute ran %d times, want 2 (fail, retry)", calls)
			}
			if left := entries(); len(left) != 1 || filepath.Ext(left[0]) != ".json" {
				t.Errorf("retry persisted %v, want one entry", left)
			}
			checkStats(t, c)
		})
	}
}

func TestIsTransient(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{errors.New("scheduler spec invalid"), false},
		{fmt.Errorf("wrapped: %w", errors.New("run exceeded cycle bound")), false},
		{Transient(errors.New("flaky")), true},
		{&os.PathError{Op: "open", Path: "x", Err: syscall.ENOENT}, true},
		{fmt.Errorf("save: %w", syscall.ENOSPC), true},
		{os.NewSyscallError("mmap", syscall.ENOMEM), true},
		{nil, false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestSetDirBackfill mirrors the trace pool's SetTraceDir flush test:
// results memoized before the directory was configured must reach the
// disk tier when it is, not linger in-memory only until the process
// dies.
func TestSetDirBackfill(t *testing.T) {
	c := New()
	want := fakeStats(77)
	if _, _, err := c.Do("early", func() (pipeline.Stats, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("deterministic failure")
	if _, _, err := c.Do("bad", func() (pipeline.Stats, error) { return pipeline.Stats{}, boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	// The successful pre-SetDir result is now on disk: a fresh cache over
	// the same directory serves it without computing.
	c2 := New()
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	st, hit, err := c2.Do("early", func() (pipeline.Stats, error) {
		t.Fatal("compute called despite backfilled entry")
		return pipeline.Stats{}, nil
	})
	if err != nil || !hit || st.Cycles != want.Cycles {
		t.Fatalf("backfilled entry not served: st=%+v hit=%v err=%v", st, hit, err)
	}
	// Error entries are not persisted (errors never are); the key simply
	// recomputes in the new process.
	var computed bool
	if _, hit, _ := c2.Do("bad", func() (pipeline.Stats, error) {
		computed = true
		return fakeStats(1), nil
	}); hit || !computed {
		t.Errorf("error entry leaked to disk: hit=%v computed=%v", hit, computed)
	}
}

// TestLimitLRUOverDisk: with a bound, the memory tier holds the most
// recently used results and older ones fall back to the disk tier.
func TestLimitLRUOverDisk(t *testing.T) {
	c := New()
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	c.SetLimit(2)
	mk := func(n int64) func() (pipeline.Stats, error) {
		return func() (pipeline.Stats, error) { return fakeStats(n), nil }
	}
	c.Do("a", mk(1))
	c.Do("b", mk(2))
	c.Do("a", mk(1)) // touch a: b is now least recently used
	c.Do("c", mk(3)) // evicts b
	if n := c.Len(); n != 2 {
		t.Fatalf("resident entries = %d, want 2", n)
	}
	st, hit, err := c.Do("b", mk(0))
	if err != nil || !hit || st.Cycles != 2 {
		t.Fatalf("evicted entry not recalled from disk: st=%+v hit=%v err=%v", st, hit, err)
	}
	cs := c.Stats()
	if cs.Evictions < 1 || cs.DiskHits != 1 || cs.Misses != 3 {
		t.Errorf("stats = %+v, want >=1 eviction, 1 disk hit, 3 misses", cs)
	}
	// "a" stayed warm the whole time.
	if st, hit, _ := c.Do("a", mk(0)); !hit || st.Cycles != 1 {
		t.Errorf("warm entry lost: st=%+v hit=%v", st, hit)
	}
	checkStats(t, c)
}

// TestLimitWithoutDirRecomputes: bounding memory without a disk tier
// turns eviction into recomputation — still correct, just slower.
func TestLimitWithoutDirRecomputes(t *testing.T) {
	c := New()
	c.SetLimit(1)
	var calls int32
	compute := func() (pipeline.Stats, error) {
		atomic.AddInt32(&calls, 1)
		return fakeStats(4), nil
	}
	c.Do("a", compute)
	c.Do("b", compute) // evicts a
	st, hit, err := c.Do("a", compute)
	if err != nil || hit || st.Cycles != 4 {
		t.Fatalf("recompute after eviction: st=%+v hit=%v err=%v", st, hit, err)
	}
	if calls != 3 {
		t.Errorf("compute ran %d times, want 3", calls)
	}
}

func TestReset(t *testing.T) {
	c := New()
	if _, _, err := c.Do("k", func() (pipeline.Stats, error) { return fakeStats(1), nil }); err != nil {
		t.Fatal(err)
	}
	c.RecordUncacheable()
	c.Reset()
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Errorf("reset left len=%d stats=%+v", c.Len(), c.Stats())
	}
}

// TestDoCorruptNotMemoized pins the corrupt-abandon path: a compute
// failing with a corrupt-artifact error (a torn trace the pool deleted,
// a mangled cache entry) must not be memoized — the artifact is rebuilt
// by the layer that found it, so a later lookup must retry. Before the
// errclass split, such errors were neither ErrTransient nor os errors,
// so a daemon memoized them forever and the key stayed bricked after
// the store had healed.
func TestDoCorruptNotMemoized(t *testing.T) {
	c := New()
	var calls int32
	compute := func() (pipeline.Stats, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return pipeline.Stats{}, fmt.Errorf("replay: %w", errclass.Corrupt(errors.New("chunk checksum mismatch")))
		}
		return fakeStats(7), nil
	}
	_, hit, err := c.Do("k", compute)
	if hit || !errclass.IsCorrupt(err) {
		t.Fatalf("first Do: hit=%v err=%v, want corrupt miss", hit, err)
	}
	if c.Len() != 0 {
		t.Fatalf("corrupt error left %d entries memoized", c.Len())
	}
	st, hit, err := c.Do("k", compute)
	if err != nil || hit || st.Cycles != 7 {
		t.Fatalf("retry Do = %+v, hit=%v, err=%v, want recomputed success", st, hit, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (corrupt error retried)", calls)
	}
}

// TestDiskEntryMatchesOracle pins the bytes of a persisted entry to the
// canonical encoder's reference: disk entries written before and after
// a change to the encoder must not differ.
func TestDiskEntryMatchesOracle(t *testing.T) {
	canonjsontest.Check(t, "fakeStats", diskEntry{Key: "k\x00w", Stats: fakeStats(7)})
	canonjsontest.Check(t, "zero", diskEntry{})
	for seed := int64(0); seed < 100; seed++ {
		var de diskEntry
		canonjsontest.Fill(&de, rand.New(rand.NewSource(seed)))
		canonjsontest.Check(t, "filled", de)
	}
}

// FuzzLoadDisk writes arbitrary bytes as a key's entry file. Do must
// serve the decoded entry when its key matches, and otherwise replace
// the file with a freshly computed result.
func FuzzLoadDisk(f *testing.F) {
	const key = "fw8|sched=window/64\x00compress"
	want := diskEntry{Key: key, Stats: fakeStats(42)}
	seed, err := canonjson.Marshal(want)
	if err != nil {
		f.Fatal(err)
	}
	var back diskEntry
	if err := json.Unmarshal(seed, &back); err != nil || !reflect.DeepEqual(back, want) {
		f.Fatalf("canonical entry does not round-trip: %+v, %v", back, err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte("window/64"), []byte("window/32"), 1))
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"key":"` + strings.ReplaceAll(key, "\x00", `\u0000`) + `","stats":{"IssuedPerCycle":[1,2,3],"Cycles":-1}}`))
	f.Add([]byte(`{"key":null,"stats":[]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := diskPath(dir, key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var de diskEntry
		usable := json.Unmarshal(data, &de) == nil && de.Key == key
		c := New()
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		computed := false
		st, hit, err := c.Do(key, func() (pipeline.Stats, error) {
			computed = true
			return fakeStats(9), nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if usable {
			if !hit || computed || !reflect.DeepEqual(st, de.Stats) {
				t.Fatalf("usable entry not served: hit=%v computed=%v\n got %+v\nwant %+v", hit, computed, st, de.Stats)
			}
			return
		}
		if hit || !computed || st.Cycles != 9 {
			t.Fatalf("unusable entry served: hit=%v computed=%v st=%+v", hit, computed, st)
		}
		rewritten, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("entry not rewritten: %v", err)
		}
		if fresh, _ := canonjson.Marshal(diskEntry{Key: key, Stats: fakeStats(9)}); !bytes.Equal(rewritten, fresh) {
			t.Fatalf("unusable entry not replaced by the fresh result:\n%s", rewritten)
		}
	})
}
