//go:build !race

package wlopt

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop items at random, so allocation counts vary from run to run.
const raceEnabled = false
