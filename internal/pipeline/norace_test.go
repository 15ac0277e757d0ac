//go:build !race

package pipeline

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
