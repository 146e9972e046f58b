// Observability plane of cmd/stream: -obs-addr mounts one obs.Server for
// the run's store (metrics, statusz, healthz, pprof). -trace-slow
// additionally dumps the slow-commit ring (per-stage breakdown) after a
// lone-engine run, attributing fsync and flat-patch cost per commit.
package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// startObs mounts the plane for o on addr ("" disables): the store's
// metrics, /healthz from a durable engine's fail-stop error, and /statusz
// with the store counters — plus, for a lone engine, the stage breakdown
// and slow-commit ring.
func startObs[E any](addr string, o opened[E]) {
	if addr == "" {
		return
	}
	reg := obs.NewRegistry()
	o.RegisterMetrics(reg)
	faults.Default.RegisterMetrics(reg)
	srv := obs.NewServer()
	srv.SetRegistry(reg)
	srv.SetHealth(o.health)
	srv.SetStatus(func() any {
		st := map[string]any{
			"store":        o.Stats(),
			"faults_armed": faults.Default.ArmedCount(),
		}
		if o.tracer != nil {
			slow, seen := o.tracer.SlowViews()
			st["stages"] = o.tracer.Summaries()
			st["slow_commits"] = map[string]any{"seen": seen, "traces": slow}
		}
		return st
	})
	if err := srv.Start(addr); err != nil {
		fatal("obs: %v", err)
	}
	fmt.Printf("stream: obs on http://%s (/metrics /statusz /healthz /debug/pprof)\n", srv.Addr())
}

// dumpSlowTraces prints the run's slow-commit ring, newest first: one
// line per commit with its per-stage breakdown, then the per-stage
// summary over every commit of the run. Called at the end of a run when
// -trace-slow is set.
func dumpSlowTraces(t *obs.StageTracer, threshold time.Duration) {
	traces, seen := t.Slow()
	fmt.Printf("slow commits (>= %v): %d seen, %d retained\n", threshold, seen, len(traces))
	for _, tr := range traces {
		fmt.Printf("  stamp %-8d %4d batches %7d edges total %-10v", tr.Stamp, tr.Batches, tr.Edges, tr.Total().Round(time.Microsecond))
		for i, d := range tr.Durs {
			if d > 0 {
				fmt.Printf(" %s %v", obs.Stage(i).String(), d.Round(time.Microsecond))
			}
		}
		fmt.Println()
	}
	sums := t.Summaries()
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("stage breakdown (all commits):")
	for _, n := range names {
		s := sums[n]
		fmt.Printf("  %-10s p50 %-10v p95 %-10v p99 %-10v max %-10v (%d commits)\n",
			n, s.P50, s.P95, s.P99, s.Max, s.Count)
	}
}
