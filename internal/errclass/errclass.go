// Package errclass classifies failures crossing the persistence
// boundary into two kinds the rest of the system dispatches on:
//
//   - Transient: the environment misbehaved (a full disk, a vanished
//     directory, EMFILE). A retry may not reproduce it, so callers such
//     as runcache must deliver it without memoizing it.
//   - Corrupt: an on-disk artifact failed validation (torn write, bit
//     rot, checksum mismatch). The artifact can be deleted and rebuilt,
//     so the error is retryable too — but it names a repairable store
//     fault, not a resource blip, and is counted separately.
//
// Everything else — simulator validation errors, runaway-guard trips —
// is deterministic: the same inputs fail the same way every time, and
// memoizing the failure is both safe and desirable.
//
// The package is a leaf (stdlib only) so that runcache, trace and the
// server can all share one vocabulary without import cycles.
package errclass

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// ErrTransient marks an error as environmental rather than
// deterministic; see Transient and IsTransient.
var ErrTransient = errors.New("transient failure")

// ErrCorrupt marks an error as a validation failure of a stored
// artifact; see Corrupt and IsCorrupt.
var ErrCorrupt = errors.New("corrupt artifact")

// Transient wraps err so IsTransient reports true: the caller is
// asserting the failure came from the environment (I/O, resources), not
// from the deterministic computation itself.
//
//ce:classifier
func Transient(err error) error {
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// Corrupt wraps err so IsCorrupt reports true: the caller is asserting
// a stored artifact failed validation and can be deleted and rebuilt.
//
//ce:classifier
func Corrupt(err error) error {
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// IsTransient reports whether err describes an environmental failure —
// one a retry may not reproduce — rather than a deterministic property
// of the computation. Raw operating-system errors count even without an
// explicit ErrTransient wrap, so an unclassified I/O failure that slips
// through still fails safe (toward retry, not memoization).
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var (
		pathErr *os.PathError
		linkErr *os.LinkError
		sysErr  *os.SyscallError
		errno   syscall.Errno
	)
	return errors.As(err, &pathErr) || errors.As(err, &linkErr) ||
		errors.As(err, &sysErr) || errors.As(err, &errno)
}

// IsCorrupt reports whether err describes a corrupt stored artifact.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorrupt)
}
