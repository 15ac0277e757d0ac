// Package badmod seeds one violation of each celint contract — the
// intra-package classic here, the cross-package ones in cross.go (see
// the dep and inner packages) — and the celint tests assert that
// go vet -vettool exits nonzero naming every analyzer.
//
//ce:deterministic
//ce:classify-errors
package badmod

// Heads leaks map iteration order into its caller.
func Heads(m map[string]int, visit func(string)) {
	for k := range m {
		visit(k)
	}
}
