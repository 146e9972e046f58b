// Command ledger is the repository's one performance ledger: it runs four
// fixed workloads — the same rMAT update stream through the in-memory engine,
// the engine with a reader, the durable engine, and two shard servers over
// loopback TCP — and reports submit→visible latency, ingest rate, query
// latency, memory per edge and set-up time for each, checks every result
// against a reference replay, and (traced) attributes the latencies to the
// layers. It claims no gain; it is the baseline later claims are measured
// against. See README.md.
//
//	go run . -seed 1                      # every workload, untraced
//	go run . -seed 1 -trace 1 -runs 5     # five runs each, plus a traced run
//	go run . -workload engine.update -seed 7 -seconds 24 -trace 0
//	go run . -compare out/a.json out/b.json
//	go run . -smoke                       # every code path in a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	// One P more than the system's own worker pools use (internal/parallel
	// sized them when the package loaded): the generator and the acker then
	// wake on the kernel's schedule, as a separate load-generator process
	// would, instead of queueing behind the system's CPU-bound goroutines
	// for a Go scheduler quantum.
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// ledgerFile is what a full set of runs leaves behind for -compare.
type ledgerFile struct {
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name   string      `json:"name"`
	Runs   []runResult `json:"runs"`
	Traced *runResult  `json:"traced,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and end with the result as one JSON line (default: every workload)")
		seed    = fs.Uint64("seed", 1, "seed of the generated stream; recorded in the output, never shown to the system under test")
		seconds = fs.Int("seconds", defaultSeconds, "length of the measured phases")
		trace   = fs.Int("trace", 0, "1: record spans and layer counters, run the layer probes, write out/trace-<workload>.json")
		runs    = fs.Int("runs", 1, "untraced runs of each workload in a full set")
		smoke   = fs.Bool("smoke", false, "tiny graph and 1 s phases: exercises every code path, measures nothing")
		dataDir = fs.String("dir", "", "directory for WAL and checkpoint files (default: the system's temporary directory)")
		outDir  = fs.String("out", "out", "directory for trace files and the full set's ledger JSON")
		compare = fs.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ledger: -compare takes two ledger files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "ledger: -seconds and -runs must be at least 1, and there are no positional arguments")
		return 2
	}
	cfg := runConfig{sh: fullShape, seed: *seed, seconds: *seconds, dataDir: *dataDir, outDir: *outDir}
	if *smoke {
		cfg.sh, cfg.seconds = smokeShape, 2
	}
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 1
		}
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "ledger: unknown workload %q\n", *name)
			return 2
		}
		cfg.traced = *trace == 1
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 1
		}
		printRun(stdout, res)
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		fmt.Fprintln(stdout, resultLine(res, defs))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	// Full set: every workload, -runs untraced runs each, then one traced.
	file := ledgerFile{Seed: cfg.seed, Seconds: cfg.seconds, Smoke: *smoke}
	failed := false
	for _, w := range workloads {
		rec := workloadRecord{Name: w.name}
		for r := 0; r < *runs; r++ {
			cfg.traced = false
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "ledger: %s: %v\n", w.name, err)
				return 1
			}
			printRun(stdout, res)
			failed = failed || res.Failed > 0
			rec.Runs = append(rec.Runs, res)
		}
		if *trace == 1 {
			cfg.traced = true
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "ledger: %s (traced): %v\n", w.name, err)
				return 1
			}
			printRun(stdout, res)
			printBreakdown(stdout, rec.Runs, res)
			failed = failed || res.Failed > 0
			rec.Traced = &res
		}
		file.Workloads = append(file.Workloads, rec)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("ledger-seed%d.json", cfg.seed))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// printRun prints every metric of one run by name, with its unit, then the
// failure counts and what failed.
func printRun(w io.Writer, r runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s ==\n", r.Workload, r.Seed, mode)
	defs := append([]metricDef(nil), endToEnd...)
	if r.Traced {
		defs = append(defs, perLayer...)
	} else {
		defs = append(defs, demoted...)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintf(w, " (visible latency is supported to p%g)\n", 100*supportedTail(r.Samples["visible"]))
	fmt.Fprintf(w, "%-28s %14.6f ratio (%d failed of %d attempted)\n", "failed_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

// printBreakdown prints where the medians' time went on the blocking path
// and what tracing cost, from one traced run and the untraced runs of the
// same workload.
func printBreakdown(w io.Writer, untraced []runResult, t runResult) {
	m := t.Metrics
	fmt.Fprintf(w, "blocking path of visible_p50_ms (%.4f ms traced):", m["traced_visible_p50_ms"])
	for _, s := range []string{"sched", "submit", "ack_wait", "pin"} {
		fmt.Fprintf(w, " %s %.4f", s, m["span_"+s+"_p50_ms"])
	}
	fmt.Fprintf(w, " = %.0f%%\n", 100*m["visible_path_share"])
	fmt.Fprint(w, "  inside ack_wait, mean per commit:")
	for _, s := range []string{"enqueue", "coalesce", "wal_append", "fsync", "apply", "ack"} {
		fmt.Fprintf(w, " %s %.4f", s, m["stage_"+s+"_ms"])
	}
	fmt.Fprintln(w, " ms")
	fmt.Fprintf(w, "blocking path of query_p50_ms (%.4f ms traced):", m["traced_query_p50_ms"])
	for _, s := range []string{"begin", "flat", "kernel_bfs", "kernel_cc", "close"} {
		fmt.Fprintf(w, " %s %.4f", s, m["span_"+s+"_p50_ms"])
	}
	fmt.Fprintf(w, " = %.0f%%\n", 100*m["query_path_share"])
	for _, name := range []string{"visible_p50_ms", "query_p50_ms"} {
		var base []float64
		for _, r := range untraced {
			base = append(base, r.Metrics[name])
		}
		b := median(base)
		fmt.Fprintf(w, "tracing overhead on %s: %+.1f%% (traced %.4f over untraced median %.4f of %d)\n",
			name, 100*(m["traced_"+name]/b-1), m["traced_"+name], b, len(base))
	}
}

// resultLine renders the one JSON object the acceptance driver reads.
func resultLine(r runResult, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // every metric is a finite ratio or count
	}
	return string(line)
}
