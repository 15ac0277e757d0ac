package badmod

import "badmod/dep"

// Epoch transitively reads the wall clock inside a //ce:deterministic
// package.
func Epoch() int64 {
	return dep.Stamp()
}

// Created reads the wall clock two packages down: Created belongs to
// inner, which this package never imports.
func Created(path string) int64 {
	return dep.New(path).Created()
}

// ReadState lets dep.Load's raw environment error escape unclassified.
func ReadState(path string) ([]byte, error) {
	return dep.Load(path)
}
