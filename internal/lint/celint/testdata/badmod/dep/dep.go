// Package dep provides callees whose contract-relevant behavior — clock
// reads, blocking I/O, raw environment errors — is visible to importing
// packages only through analyzer facts. The badmod root package reaches
// every one of them across the package boundary, so a driver that fails
// to thread facts between passes misses all three seeded violations.
// New hands out a value of inner's type, whose blocking method is a
// fourth violation one package further down.
//
// Log.Append is dep's own seeded violation: go vet reports it when dep
// is among the vetted packages and suppresses it when dep is vetted only
// as a dependency of the root.
package dep

import (
	"os"
	"sync"
	"time"

	"badmod/inner"
)

// Stamp reads the wall clock: deterministic callers must not reach it.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Save blocks on file I/O: callers must not hold a mutex across it.
func Save(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// Load returns raw environment errors for callers to classify.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// New returns a file whose Flush blocks; the caller need not import inner.
func New(path string) *inner.File {
	return &inner.File{Path: path}
}

// Log appends records to a file under its mutex.
type Log struct {
	mu   sync.Mutex
	path string
}

// Append holds the mutex across file I/O.
func (l *Log) Append(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return os.WriteFile(l.path, data, 0o644)
}
