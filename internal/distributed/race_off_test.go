//go:build !race

package distributed_test

// raceEnabled reports that the race detector is on.
const raceEnabled = false
