//go:build race

package model

// raceDetector reports that the race detector is on: sync.Pool then drops a
// quarter of what is put back, so allocation ceilings do not hold.
const raceDetector = true
