// Package runcache memoizes simulation results. The timing simulator is
// deterministic — a (configuration fingerprint, workload) pair always
// produces the same Stats — so the paper's evaluation matrix, which
// revisits the same machines across figures, ablations and the frontier,
// only ever needs to simulate each distinct pair once per process.
//
// The cache is concurrency-safe and single-flight: when two goroutines
// request the same key, one computes and the other waits for (and
// shares) the result. With a directory configured, results also persist
// as JSON, so repeated sweep invocations skip simulation entirely. The
// in-memory tier can be bounded (SetLimit) into a warm LRU over the disk
// tier.
//
// Single-flight holds within one process. Processes sharing a directory
// stay correct without coordinating: entries are content-addressed,
// written as canonical bytes to a temp file and renamed into place, so
// at worst two processes compute the same entry and the second rename
// replaces it with identical bytes.
//
//ce:classify-errors
package runcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/canonjson"
	"repro/internal/errclass"
	"repro/internal/pipeline"
)

// Stats counts cache outcomes. Hits + Coalesced + DiskHits is the number
// of simulator runs the cache avoided; Misses is the number it actually
// performed.
type Stats struct {
	// Hits are lookups served from a completed in-memory entry.
	Hits uint64 `json:"hits"`
	// Coalesced are lookups that joined an in-flight computation of the
	// same key (single-flight duplicates).
	Coalesced uint64 `json:"coalesced"`
	// DiskHits are lookups served from the persistence directory,
	// including results another process sharing it wrote.
	DiskHits uint64 `json:"disk_hits"`
	// Misses are lookups that ran the simulator.
	Misses uint64 `json:"misses"`
	// Uncacheable are runs bypassing the cache because their
	// configuration has no fingerprint (opaque factory closures).
	Uncacheable uint64 `json:"uncacheable"`
	// Evictions are completed entries dropped from the bounded in-memory
	// tier; with a directory configured they remain recallable from disk.
	Evictions uint64 `json:"evictions,omitempty"`
}

// Lookups returns the total number of cache consultations.
func (s Stats) Lookups() uint64 {
	return s.Hits + s.Coalesced + s.DiskHits + s.Misses
}

// Saved returns the number of simulator runs the cache avoided.
func (s Stats) Saved() uint64 {
	return s.Hits + s.Coalesced + s.DiskHits
}

// Check reports the first violated counting invariant: each event is
// counted once, so no counter can exceed the events it is a subset of.
// An entry reaches the warm LRU only by completing after a disk hit or a
// miss, so it is evicted at most once per such lookup.
func (s Stats) Check() error {
	if s.Evictions > s.Misses+s.DiskHits {
		return fmt.Errorf("cache stats: %d evictions exceed %d misses + %d disk hits", s.Evictions, s.Misses, s.DiskHits)
	}
	return nil
}

type entry struct {
	key  string
	done chan struct{}
	st   pipeline.Stats
	err  error
	// elem is the entry's node in the warm-LRU list while the entry is
	// completed and resident; nil otherwise. Guarded by Cache.mu.
	elem *list.Element
}

// Cache is a content-addressed memo of simulation results.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	// lru orders completed resident entries, most recently used first.
	// In-flight entries are not listed (they cannot be evicted).
	lru   *list.List
	limit int
	dir   string
	stats Stats
}

// New returns an empty in-memory cache.
func New() *Cache {
	return &Cache{entries: make(map[string]*entry), lru: list.New()}
}

// SetDir enables on-disk persistence under dir (created if missing).
// An empty dir disables persistence.
//
// Results memoized before SetDir are not lost to the disk tier: every
// completed successful entry is backfilled to the new directory.
// (Before this, a daemon that warmed its cache and then gained a store
// would serve those results from memory forever while the directory —
// and every other process sharing it — silently missed them.)
// In-flight computations race the change: they persist to the directory
// they started under, and the pool forgets them so their next consumer
// recomputes — and persists — under the new directory.
func (c *Cache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return errclass.Transient(fmt.Errorf("runcache: %w", err))
		}
	}
	c.mu.Lock()
	if dir == c.dir {
		c.mu.Unlock()
		return nil
	}
	c.dir = dir
	var flush []*entry
	for k, e := range c.entries {
		select {
		case <-e.done:
			if e.err != nil {
				continue
			}
			flush = append(flush, e)
		default:
			c.forgetLocked(k, e)
		}
	}
	c.mu.Unlock()
	if dir == "" {
		return nil
	}
	for _, e := range flush {
		c.saveDisk(dir, e.key, e.st)
	}
	return nil
}

// SetLimit bounds the in-memory tier to at most n completed entries,
// evicting least-recently-used entries beyond it (n <= 0 means
// unbounded, the default). With a directory configured the memory tier
// becomes a warm LRU over disk: evicted results reload as DiskHits.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	c.limit = n
	c.evictLocked()
	c.mu.Unlock()
}

// forgetLocked removes e from the map (and LRU, if resident) if it is
// still the entry registered for key.
func (c *Cache) forgetLocked(key string, e *entry) {
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
		if e.elem != nil {
			c.lru.Remove(e.elem)
			e.elem = nil
		}
	}
}

// evictLocked enforces the LRU bound.
func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.stats.Evictions++
	}
}

// complete publishes e's result to its waiters and makes it resident in
// the warm tier (unless a SetDir reconciliation already forgot it).
func (c *Cache) complete(e *entry, st pipeline.Stats, err error) {
	e.st, e.err = st, err
	close(e.done)
	c.mu.Lock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
}

// abandon publishes err to e's waiters and removes the entry so a later
// lookup retries the computation — the path for transient failures and
// panics, which must not be memoized forever.
func (c *Cache) abandon(e *entry, err error) {
	e.err = err
	close(e.done)
	c.mu.Lock()
	c.forgetLocked(e.key, e)
	c.mu.Unlock()
}

// ErrTransient marks an error as environmental rather than
// deterministic; see Transient and IsTransient. It aliases
// errclass.ErrTransient so every subsystem that touches the store
// shares one classification vocabulary.
var ErrTransient = errclass.ErrTransient

// Transient wraps err so IsTransient reports true: the caller is
// asserting the failure came from the environment (I/O, resources), not
// from the deterministic computation itself.
//
//ce:classifier
func Transient(err error) error {
	return errclass.Transient(err)
}

// IsTransient reports whether err describes an environmental failure —
// one a retry may not reproduce — rather than a deterministic property
// of the computation. Operating-system errors (a full disk during trace
// capture, a vanished directory, EMFILE) are transient; everything else
// — simulator validation errors, runaway-guard trips — is deterministic:
// the same inputs will fail the same way every time, so memoizing the
// error is both safe and desirable.
func IsTransient(err error) bool {
	return errclass.IsTransient(err)
}

// Do returns the memoized result for key, computing it at most once per
// process. hit reports whether the result was served without invoking
// compute (including joining another goroutine's in-flight computation
// or reading an entry another process wrote).
//
// Deterministic errors are memoized: a deterministic simulator fails the
// same way every time, and callers must see the failure rather than a
// zero Stats. Transient errors (IsTransient) are delivered to the
// current waiters but not memoized, so a later lookup retries — in a
// long-lived daemon a momentary ENOSPC must not brick a key until
// restart. Corrupt-artifact errors (errclass.IsCorrupt) are treated the
// same way: a torn trace or cache file is deleted and rebuilt by the
// layer that found it, so the failure is repairable and memoizing it
// would pin a recovered key to a stale error. If compute panics, the
// panic propagates to its caller after the entry is abandoned with an
// error, so coalesced waiters unblock (with that error) instead of
// deadlocking forever.
func (c *Cache) Do(key string, compute func() (pipeline.Stats, error)) (st pipeline.Stats, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			c.stats.Hits++
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
		default:
			c.stats.Coalesced++
		}
		c.mu.Unlock()
		<-e.done
		return e.st, true, e.err
	}
	e := &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	dir := c.dir
	c.mu.Unlock()

	if dir != "" {
		if st, ok := c.loadDisk(dir, key); ok {
			c.mu.Lock()
			c.stats.DiskHits++
			c.mu.Unlock()
			c.complete(e, st, nil)
			return st, true, nil
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	panicked := true
	defer func() {
		if panicked {
			// compute is unwinding. Record the failure and unblock every
			// coalesced waiter before the panic continues to the caller;
			// the entry is dropped so the key stays retryable.
			c.abandon(e, fmt.Errorf("runcache: compute for key %.64q panicked", key))
		}
	}()
	st, err = compute()
	panicked = false
	if err != nil && (IsTransient(err) || errclass.IsCorrupt(err)) {
		c.abandon(e, err)
		return pipeline.Stats{}, false, err
	}
	if err == nil && dir != "" {
		// Persistence is best-effort: a read-only directory degrades to
		// in-memory memoization rather than failing the sweep.
		c.saveDisk(dir, key, st)
	}
	c.complete(e, st, err)
	return st, false, err
}

// RecordUncacheable notes one run that bypassed the cache.
func (c *Cache) RecordUncacheable() {
	c.mu.Lock()
	c.stats.Uncacheable++
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memoized keys.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops all in-memory entries and counters (the persistence
// directory is untouched).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.lru = list.New()
	c.stats = Stats{}
	c.mu.Unlock()
}

// diskEntry is the persisted form: the full key is stored alongside the
// result so hash collisions are detected and files are debuggable.
type diskEntry struct {
	Key   string         `json:"key"`
	Stats pipeline.Stats `json:"stats"`
}

func diskPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])[:32]+".json")
}

func (c *Cache) loadDisk(dir, key string) (pipeline.Stats, bool) {
	path := diskPath(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return pipeline.Stats{}, false
	}
	var de diskEntry
	if err := json.Unmarshal(data, &de); err != nil || de.Key != key {
		// The file is unusable — corrupt JSON from a crashed writer or a
		// hash collision with a different key. Delete it so the slot can
		// be rewritten; otherwise it would shadow this key forever.
		_ = os.Remove(path)
		return pipeline.Stats{}, false
	}
	return de.Stats, true
}

func (c *Cache) saveDisk(dir, key string, st pipeline.Stats) {
	// Canonical bytes: two processes caching the same result write
	// byte-identical files, so racing renames are harmless.
	data, err := canonjson.Marshal(diskEntry{Key: key, Stats: st})
	if err != nil {
		return
	}
	// Write to a uniquely named temp file and rename into place: a fixed
	// temp name would let two processes sharing the directory interleave
	// writes and rename a torn file over the entry.
	tmp, err := os.CreateTemp(dir, "entry-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), diskPath(dir, key)); err != nil {
		_ = os.Remove(tmp.Name())
	}
}
