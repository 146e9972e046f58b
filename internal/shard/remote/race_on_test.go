//go:build race

package remote

// raceEnabled reports whether the race detector instruments this build;
// live-heap accounting (TestFootprintAfterPreload) is not asserted there.
const raceEnabled = true
