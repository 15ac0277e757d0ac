// Package dir seeds every malformed-directive shape dirlint must flag.
package dir

// A typo'd verb would silently suppress nothing.
/* want `unknown //ce: directive "nondetok"` */ //ce:nondetok seeded randomness
func typoVerb() {}

// A hatch without its mandatory reason.
/* want "//ce:lock-ok requires a reason" */ //ce:lock-ok
func bareHatch() {
	_ = make([]int, 4)
}

// Two directives on one line: the second is dead text inside the first
// one's reason.
func stacked() {
	_ = 1 /* want "embedded in the reason" */ //ce:lock-ok brief //ce:nondet-ok seeded
}

// Well-formed directives produce nothing.

//ce:classifier
func clean() {
	_ = 1 //ce:lock-ok brief critical section
}

//ce:det-boundary wraps host telemetry
func seam() {}
