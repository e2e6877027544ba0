//go:build race

package tf_test

// raceEnabled reports that the race detector is on. Its sync.Pool then drops
// a random quarter of what is put back, the executor's pooled steps and their
// recycled buffers among them, so allocation counts are not the code's.
const raceEnabled = true
