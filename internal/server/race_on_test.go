//go:build race

package server

// raceEnabled: the race detector adds allocations and makes sync.Pool
// drop items at random, so allocation pins skip under it.
const raceEnabled = true
