// Package detcall is bit-deterministic by contract and calls into an
// unmarked library: transitive clock reads must be findings at the call
// site.
//
//ce:deterministic
package detcall

import "clocklib"

func use() int64 {
	a := clocklib.Stamp()   // want "call to clocklib.Stamp is transitively nondeterministic \\(Stamp: time.Now reads the host clock\\)"
	b := clocklib.Elapsed() // want "call to clocklib.Elapsed is transitively nondeterministic \\(Elapsed → Stamp: time.Now reads the host clock\\)"
	c := clocklib.Silenced()
	d := clocklib.Pure(4)
	e := clocklib.Stamp() //ce:nondet-ok boot banner timestamp, not simulated time
	return a + b + c + d + e
}
