//go:build !race

package tf_test

// raceEnabled reports that the race detector is on.
const raceEnabled = false
