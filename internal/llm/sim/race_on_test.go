//go:build race

package sim

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation pins that rely on a pooled buffer skip under it.
const raceEnabled = true
