// Package dep provides callees whose contract-relevant behavior — clock
// reads, raw environment errors — is visible to importing packages only
// through analyzer facts. The badmod root package reaches each of them
// across the package boundary, so a driver that fails to thread facts
// between passes misses the seeded violations. New hands out a value of
// inner's type, whose clock-reading method is a third violation one
// package further down.
//
// Load's raw return is also dep's own seeded violation, since dep is
// //ce:classify-errors: go vet reports it when dep is among the vetted
// packages and suppresses it when dep is vetted only as a dependency of
// the root.
//
//ce:classify-errors
package dep

import (
	"os"
	"time"

	"badmod/inner"
)

// Stamp reads the wall clock: deterministic callers must not reach it.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Load returns raw environment errors for callers to classify.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// New returns a file whose Created reads the clock; the caller need not
// import inner.
func New(path string) *inner.File {
	return &inner.File{Path: path}
}
