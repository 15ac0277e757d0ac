// Package inner is imported by dep alone. The badmod root reaches its
// Read method through a value dep returns, without importing inner, so
// the method's fact reaches the root only if dep's vetx file carries the
// facts of dep's own imports along.
package inner

import "os"

// File is a file on disk.
type File struct {
	Path string
}

// Read returns the file's contents and a raw environment error.
func (f *File) Read() ([]byte, error) {
	return os.ReadFile(f.Path)
}
