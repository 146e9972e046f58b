//go:build !race

package ctree

const raceEnabled = false
