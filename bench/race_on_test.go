//go:build race

package main

// raceEnabled reports that the race detector is on: everything runs several
// times slower, so a 0.1 s slice may hold no measured op at all.
const raceEnabled = true
