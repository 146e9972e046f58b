package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of two samples of one metric. The ratio is
// b over a, so its base is a. A sample whose own spread (interquartile
// distance over median) exceeds the bound cannot resolve a change of the
// bound's size: the row is then unresolved, not unchanged.
func judge(d metricDef, a, b []float64) (ma, mb, rel float64, verdict string) {
	ma, mb = median(a), median(b)
	rel = ratio(mb, ma)
	worse := rel > 1+d.bound
	if d.better == "higher" {
		worse = rel < 1-d.bound
	}
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		verdict = verdictUnresolved
	case worse:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return ma, mb, rel, verdict
}

func readLedger(path string) (ledgerFile, error) {
	var f ledgerFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func (f ledgerFile) workload(name string) (workloadRecord, bool) {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadRecord{}, false
}

func (w workloadRecord) values(metric string) []float64 {
	out := make([]float64, len(w.Runs))
	for i, r := range w.Runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

func (w workloadRecord) failedShare() float64 {
	att, failed := 0, 0
	for _, r := range w.Runs {
		att += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(att))
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// ledger files and returns 1 when any row is worse or B failed more than A.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readLedger(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	b, err := readLedger(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A = %s (seed %d)\nB = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(stdout, "%-15s %-19s %14s %14s %17s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	bad := false
	for _, w := range workloads {
		wa, okA := a.workload(w.name)
		wb, okB := b.workload(w.name)
		if !okA || !okB {
			fmt.Fprintf(stdout, "%-15s missing from one file\n", w.name)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			ma, mb, rel, v := judge(d, wa.values(d.name), wb.values(d.name))
			fmt.Fprintf(stdout, "%-15s %-19s %14.4f %14.4f %17.4f %6.2f  %s\n",
				w.name, d.name, ma, mb, rel, d.bound, v)
			bad = bad || v == verdictWorse
		}
		fa, fb := wa.failedShare(), wb.failedShare()
		v := verdictOK
		if fb > fa {
			v, bad = verdictWorse, true
		}
		fmt.Fprintf(stdout, "%-15s %-19s %14.6f %14.6f %17s %6s  %s\n", w.name, "failed_share", fa, fb, "", "", v)
	}
	if bad {
		return 1
	}
	return 0
}
