package badmod

import (
	"sync"

	"badmod/dep"
)

// Epoch transitively reads the wall clock inside a //ce:deterministic
// package.
func Epoch() int64 {
	return dep.Stamp()
}

// Box holds its mutex across cross-package file I/O.
type Box struct {
	mu sync.Mutex
	n  int
}

// Checkpoint is the seeded lock-across-blocking-call violation.
func (b *Box) Checkpoint(path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	return dep.Save(path, nil)
}

// Sync holds its mutex across file I/O two packages down: Flush belongs
// to inner, which this package never imports.
func (b *Box) Sync(path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return dep.New(path).Flush()
}

// ReadState lets dep.Load's raw environment error escape unclassified.
func ReadState(path string) ([]byte, error) {
	return dep.Load(path)
}
