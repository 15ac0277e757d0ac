// Package inner is imported by dep alone. The badmod root reaches its
// clock-reading method through a value dep returns, without importing
// inner, so the method's fact reaches the root only if dep's vetx file
// carries the facts of dep's own imports along.
package inner

import "time"

// File is a file whose creation Created stamps.
type File struct {
	Path string
}

// Created reads the wall clock: deterministic callers must not reach it.
func (f *File) Created() int64 {
	return time.Now().UnixNano()
}
