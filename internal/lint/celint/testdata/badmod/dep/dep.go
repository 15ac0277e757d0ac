// Package dep provides callees that return raw environment errors,
// visible to importing packages only through analyzer facts. The badmod
// root package reaches each of them across the package boundary, so a
// driver that fails to thread facts between passes misses the seeded
// violations. New hands out a value of inner's type, whose Read method
// is a second violation one package further down.
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

	"badmod/inner"
)

// Load returns raw environment errors for callers to classify.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// New returns a file whose Read returns raw environment errors; the
// caller need not import inner.
func New(path string) *inner.File {
	return &inner.File{Path: path}
}
