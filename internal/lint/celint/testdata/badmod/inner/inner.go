// Package inner is imported by dep alone. The badmod root reaches its
// blocking method through a value dep returns, without importing inner,
// so the method's fact reaches the root only if dep's vetx file carries
// the facts of dep's own imports along.
package inner

import "os"

// File is a file that Flush writes.
type File struct {
	Path string
}

// Flush blocks on file I/O: callers must not hold a mutex across it.
func (f *File) Flush() error {
	return os.WriteFile(f.Path, nil, 0o644)
}
