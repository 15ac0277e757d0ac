//go:build !race

package ce

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
