//go:build race

package embed

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation pins skip under it.
const raceEnabled = true
