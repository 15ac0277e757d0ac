// Package dir seeds every malformed-directive shape dirlint must flag.
package dir

// A typo'd verb would silently suppress nothing.
/* want `unknown //ce: directive "nondetok"` */ //ce:nondetok seeded randomness
func typoVerb() {}

// A hatch without its mandatory reason.
/* want "//ce:err-ok requires a reason" */ //ce:err-ok
func bareHatch() {
	_ = make([]int, 4)
}

// Two directives on one line: the second is dead text inside the first
// one's reason.
func stacked() {
	_ = 1 /* want "embedded in the reason" */ //ce:err-ok brief //ce:classifier
}

// Well-formed directives produce nothing.

//ce:classifier
func clean() {
	_ = 1 //ce:err-ok brief passthrough
}
