// Observability plane of cmd/stream: -obs-addr mounts one obs.Server
// for the whole process (metrics, statusz, healthz, pprof) and each
// sweep run swaps in a registry for the store it just built — the store
// is rebuilt per run, the server is not. -trace-slow additionally dumps
// the slow-commit ring (per-stage breakdown) after every lone-engine run,
// attributing fsync and flat-patch cost per commit.
package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// obsSrv is the process-wide observability server; nil without
// -obs-addr. Mutated only during flag handling in main, before any run
// starts.
var obsSrv *obs.Server

// startObs mounts the plane on addr ("" disables).
func startObs(addr string) {
	if addr == "" {
		return
	}
	obsSrv = obs.NewServer()
	if err := obsSrv.Start(addr); err != nil {
		fatal("obs: %v", err)
	}
	fmt.Printf("stream: obs on http://%s (/metrics /statusz /healthz /debug/pprof)\n", obsSrv.Addr())
}

// mountObs swaps the current run's store into the obs server: the store's
// metrics, /healthz from a durable engine's fail-stop error, and /statusz
// with the store counters — plus, for a lone engine, the stage breakdown
// and slow-commit ring.
func mountObs[E any](o opened[E]) {
	if obsSrv == nil {
		return
	}
	reg := obs.NewRegistry()
	o.RegisterMetrics(reg)
	reg.GaugeFunc("aspen_faults_armed",
		"Failpoints currently armed in the process-global registry.",
		func() float64 { return float64(faults.Default.ArmedCount()) })
	obsSrv.SetRegistry(reg)
	obsSrv.SetHealth(o.health)
	obsSrv.SetStatus(func() any {
		st := map[string]any{
			"store":        o.Stats(),
			"faults_armed": faults.Default.ArmedCount(),
		}
		if o.tracer != nil {
			slow, seen := o.tracer.SlowViews()
			st["stages"] = stageStatus(o.tracer)
			st["slow_commits"] = map[string]any{"seen": seen, "traces": slow}
		}
		return st
	})
}

// stageStatus renders the tracer's per-stage summaries for /statusz,
// dropping stages that never ran.
func stageStatus(t *obs.StageTracer) map[string]obs.LatencySummary {
	sums := t.Summaries()
	out := make(map[string]obs.LatencySummary, len(sums))
	for i, s := range sums {
		if s.Count > 0 {
			out[obs.Stage(i).String()] = s
		}
	}
	return out
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
	sums := stageStatus(t)
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
