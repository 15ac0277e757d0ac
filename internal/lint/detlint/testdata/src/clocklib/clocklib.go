// Package clocklib is an unmarked library whose internals read the host
// clock; detlint computes nondeterminism facts for its exported functions
// so //ce:deterministic callers see through the calls.
package clocklib

import "time"

// Stamp reads the host clock directly.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed reaches the clock one hop down, through Stamp.
func Elapsed() int64 {
	return Stamp() + 1
}

// Silenced reads the clock under a hatch: the author asserted the read
// does not affect observable behavior, so no fact is exported.
func Silenced() int64 {
	return time.Now().UnixNano() //ce:nondet-ok telemetry counter, never compared
}

// Pure is deterministic.
func Pure(x int64) int64 { return x * 2 }
