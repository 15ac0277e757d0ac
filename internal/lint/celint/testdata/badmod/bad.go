// Package badmod seeds one violation of each celint contract — the
// intra-package classics here, the cross-package ones in cross.go (see
// the dep and inner packages) — and the celint tests assert that
// go vet -vettool exits nonzero naming every analyzer.
//
//ce:deterministic
//ce:classify-errors
package badmod

import "fmt"

// Spec is fingerprinted, but Extra is not folded into Key.
//
//ce:keyed
type Spec struct {
	Size  int
	Extra int
}

// Key covers Size only.
func (s Spec) Key() string { return fmt.Sprint(s.Size) }

// Heads leaks map iteration order into its caller.
func Heads(m map[string]int, visit func(string)) {
	for k := range m {
		visit(k)
	}
}

// Step allocates on the hot path.
//
//ce:hot
func Step() []int {
	return make([]int, 8)
}
