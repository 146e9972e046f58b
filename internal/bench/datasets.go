// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§7), printing the same rows the paper reports.
// Absolute numbers reflect this machine and the synthetic stand-in graphs
// (DESIGN.md documents the substitutions); the comparisons and trends are
// the reproduction targets, indexed in DESIGN.md "Experiment index
// (`aspen-bench`)".
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/parallel"
	"repro/internal/rmat"
)

// Dataset is a synthetic stand-in for one of the paper's input graphs
// (Table 1), generated deterministically with rMAT at a scale chosen for a
// small machine while preserving the paper's average-degree regime.
type Dataset struct {
	// Name of the stand-in and the paper graph it models.
	Name    string
	StandIn string
	// Scale is log2 of the vertex count; GenEdges is the number of rMAT
	// samples drawn before symmetrization.
	Scale    int
	GenEdges uint64
	Seed     uint64
}

// datasets returns the benchmark inputs; quick mode shrinks them for tests.
func datasets(quick bool) []Dataset {
	if quick {
		return []Dataset{
			{Name: "social-S", StandIn: "LiveJournal", Scale: 10, GenEdges: 8_000, Seed: 1},
			{Name: "social-M", StandIn: "com-Orkut", Scale: 9, GenEdges: 16_000, Seed: 2},
		}
	}
	return []Dataset{
		{Name: "social-S", StandIn: "LiveJournal", Scale: 16, GenEdges: 600_000, Seed: 1},
		{Name: "social-M", StandIn: "com-Orkut", Scale: 15, GenEdges: 1_300_000, Seed: 2},
		{Name: "social-L", StandIn: "Twitter", Scale: 17, GenEdges: 3_800_000, Seed: 3},
		{Name: "web-L", StandIn: "ClueWeb", Scale: 18, GenEdges: 4_000_000, Seed: 4},
	}
}

// adjacency caches generated graphs across table runners.
var (
	adjMu    sync.Mutex
	adjCache = map[string][][]uint32{}
)

// Adjacency generates (or returns the cached) symmetric adjacency lists.
func (d Dataset) Adjacency() [][]uint32 {
	adjMu.Lock()
	defer adjMu.Unlock()
	key := fmt.Sprintf("%s/%d/%d/%d", d.Name, d.Scale, d.GenEdges, d.Seed)
	if adj, ok := adjCache[key]; ok {
		return adj
	}
	gen := rmat.NewGenerator(d.Scale, d.Seed)
	adj := gen.Adjacency(d.GenEdges)
	adjCache[key] = adj
	return adj
}

// AspenGraph builds the dataset as an Aspen graph with the given params.
func (d Dataset) AspenGraph(p ctree.Params) aspen.Graph {
	return aspen.FromAdjacency(p, d.Adjacency())
}

// NumEdges counts directed edges of the symmetrized dataset.
func (d Dataset) NumEdges() uint64 {
	var m uint64
	for _, nbrs := range d.Adjacency() {
		m += uint64(len(nbrs))
	}
	return m
}

// timeIt returns the wall-clock duration of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// medianOf3 runs f three times and returns the median duration (the paper
// reports medians for the update experiments).
func medianOf3(f func()) time.Duration {
	a, b, c := timeIt(f), timeIt(f), timeIt(f)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// withProcs runs f with the parallelism primitives limited to p workers and
// restores the previous setting (used for the 1-thread columns).
func withProcs(p int, f func()) {
	old := parallel.Procs
	parallel.Procs = p
	defer func() { parallel.Procs = old }()
	f()
}

// secs formats a duration in seconds like the paper's tables.
func secs(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.2e", s)
	}
}

// gb formats a byte count as gigabytes (or MB below 0.1 GB) for the memory
// tables.
func gb(bytes uint64) string {
	g := float64(bytes) / 1e9
	if g >= 0.1 {
		return fmt.Sprintf("%.3f GB", g)
	}
	return fmt.Sprintf("%.2f MB", float64(bytes)/1e6)
}

// rate formats an updates-per-second figure.
func rate(updates uint64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(updates) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}
