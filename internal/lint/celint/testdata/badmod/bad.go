// Package badmod seeds cross-package violations of errlint's contract
// (see the dep and inner packages), and the celint tests assert that
// go vet -vettool exits nonzero naming each of them.
//
//ce:classify-errors
package badmod

import "badmod/dep"

// ReadState lets dep.Load's raw environment error escape unclassified.
func ReadState(path string) ([]byte, error) {
	return dep.Load(path)
}

// ReadFile lets an environment error from two packages down escape:
// Read belongs to inner, which this package never imports.
func ReadFile(path string) ([]byte, error) {
	return dep.New(path).Read()
}
