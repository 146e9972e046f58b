//go:build race

package repro

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool.Put drops items at random, so pooled scratch is
// allocated again and allocation counts are not the ones the gates pin.
const raceEnabled = true
