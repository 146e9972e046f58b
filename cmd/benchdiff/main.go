// Command benchdiff compares a `go test -bench` run against a committed
// BENCH_*.json baseline snapshot and flags regressions beyond a threshold
// (see BENCHMARKS.md for the workflow).
//
// Usage:
//
//	go test -run=NONE -bench 'InsertEdges|Union' -benchmem ./... | \
//	    go run ./cmd/benchdiff -baseline BENCH_pr1_zero_alloc.json
//
//	# CI guards the deterministic metric only:
//	... | go run ./cmd/benchdiff -baseline BENCH_pr1_zero_alloc.json -metrics allocs_op
//
// Exit status is 1 when any compared metric regresses by more than
// -threshold percent. Benchmarks present in only one side are reported but
// never fail the run (new benchmarks land with their first snapshot).
// With -out, the observed numbers are also written as a fresh snapshot
// file for committing alongside a PR.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry mirrors one benchmark record of a BENCH_*.json snapshot. Metrics
// are pointers so that "absent" (not measured) is distinct from a genuine
// zero — an allocs_op of 0 is the repo's best possible result and must
// still gate regressions.
type entry struct {
	Name     string   `json:"name"`
	Pkg      string   `json:"pkg,omitempty"`
	NsOp     *float64 `json:"ns_op,omitempty"`
	BOp      *float64 `json:"b_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
	EdgesSec *float64 `json:"edges_sec,omitempty"`
}

type snapshot struct {
	Tag         string  `json:"tag,omitempty"`
	Description string  `json:"description,omitempty"`
	Machine     string  `json:"machine,omitempty"`
	Benchmarks  []entry `json:"benchmarks"`
}

// metric describes how a comparable quantity is read and judged.
type metric struct {
	get        func(e entry) *float64
	set        func(e *entry, v float64)
	lowerWorse bool // true when a smaller value is a regression (throughput)
}

var metrics = map[string]metric{
	"ns_op":     {get: func(e entry) *float64 { return e.NsOp }, set: func(e *entry, v float64) { e.NsOp = &v }},
	"b_op":      {get: func(e entry) *float64 { return e.BOp }, set: func(e *entry, v float64) { e.BOp = &v }},
	"allocs_op": {get: func(e entry) *float64 { return e.AllocsOp }, set: func(e *entry, v float64) { e.AllocsOp = &v }},
	"edges_sec": {get: func(e entry) *float64 { return e.EdgesSec }, set: func(e *entry, v float64) { e.EdgesSec = &v }, lowerWorse: true},
}

// unitToMetric maps `go test -bench` output units to snapshot fields.
var unitToMetric = map[string]string{
	"ns/op":     "ns_op",
	"B/op":      "b_op",
	"allocs/op": "allocs_op",
	"edges/sec": "edges_sec",
}

// parseBenchOutput extracts benchmark lines ("BenchmarkX-8  10  123 ns/op
// 45 B/op 6 allocs/op 7 edges/sec") from r.
func parseBenchOutput(r io.Reader) (map[string]entry, error) {
	out := map[string]entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the GOMAXPROCS suffix ("-8").
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := out[name]
		e.Name = name
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if m, ok := unitToMetric[fields[i+1]]; ok {
				metrics[m].set(&e, v)
			}
		}
		out[name] = e
	}
	return out, sc.Err()
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed BENCH_*.json snapshot to compare against")
		input        = flag.String("input", "-", "bench output to read ('-' = stdin)")
		threshold    = flag.Float64("threshold", 15, "regression threshold in percent")
		metricList   = flag.String("metrics", "ns_op,allocs_op", "comma-separated metrics to compare (ns_op, b_op, allocs_op, edges_sec)")
		outPath      = flag.String("out", "", "write the observed numbers as a new snapshot to this file")
		tag          = flag.String("tag", "", "tag recorded in the -out snapshot")
	)
	flag.Parse()
	if *baselinePath == "" && *outPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -baseline and/or -out")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchOutput(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading bench output: %v\n", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
		os.Exit(2)
	}

	if *outPath != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		snap := snapshot{Tag: *tag, Benchmarks: make([]entry, 0, len(names))}
		for _, n := range names {
			snap.Benchmarks = append(snap.Benchmarks, got[n])
		}
		data, _ := json.MarshalIndent(snap, "", "  ")
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(snap.Benchmarks), *outPath)
	}
	if *baselinePath == "" {
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}

	compare := strings.Split(*metricList, ",")
	for _, m := range compare {
		if _, ok := metrics[strings.TrimSpace(m)]; !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: unknown metric %q\n", m)
			os.Exit(2)
		}
	}

	regressions := 0
	compared := 0
	for _, b := range base.Benchmarks {
		g, ok := got[b.Name]
		if !ok {
			continue
		}
		for _, mn := range compare {
			mn = strings.TrimSpace(mn)
			m := metrics[mn]
			bp, gp := m.get(b), m.get(g)
			if bp == nil || gp == nil {
				continue // metric absent on one side
			}
			bv, gv := *bp, *gp
			compared++
			var deltaPct float64
			switch {
			case bv == gv:
				deltaPct = 0
			case bv == 0:
				// Any growth from a true zero baseline is a regression
				// (zero allocs is the floor the pipeline defends).
				deltaPct = 100
			case m.lowerWorse:
				deltaPct = (bv - gv) / bv * 100
			default:
				deltaPct = (gv - bv) / bv * 100
			}
			status := "ok"
			if deltaPct > *threshold {
				status = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-55s %-10s base=%-12.4g got=%-12.4g %+.1f%% [%s]\n",
				b.Name, mn, bv, gv, deltaPct, status)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no overlapping benchmarks/metrics between run and baseline")
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed more than %.0f%%\n", regressions, *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d comparisons within %.0f%% of %s\n", compared, *threshold, *baselinePath)
}
