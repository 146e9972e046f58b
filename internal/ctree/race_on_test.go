//go:build race

package ctree

// raceEnabled reports whether the race detector instruments this build:
// sync.Pool drops items at random there, so pooled-scratch allocation
// counts cannot be asserted.
const raceEnabled = true
