//go:build race

package check

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
