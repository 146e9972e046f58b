package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke configuration runs all four workloads end to end — set-up, both
// phases, the reader, the checks against the reference, recovery, the traced
// run with its probes and trace file — then compares the ledger it wrote
// with itself.
func TestSmokeFullSet(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-seed", "5", "-dir", t.TempDir(), "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for _, w := range workloads {
		if !strings.Contains(stdout.String(), "== "+w.name+"  seed 5  traced ==") {
			t.Errorf("no traced run of %s in the output", w.name)
		}
		var tf traceFile
		readJSON(t, filepath.Join(out, "trace-"+w.name+".json"), &tf)
		if tf.Workload != w.name || tf.Seed != 5 || len(tf.Spans) == 0 {
			t.Errorf("trace of %s: seed %d, %d spans", w.name, tf.Seed, len(tf.Spans))
		}
	}
	if strings.Contains(stdout.String(), "FAILED") {
		t.Errorf("a check failed:\n%s", stdout.String())
	}

	ledger := filepath.Join(out, "ledger-seed5.json")
	stdout.Reset()
	if code := run([]string{"-compare", ledger, ledger}, &stdout, &stderr); code != 0 {
		t.Errorf("a ledger compared with itself: exit %d\n%s", code, stdout.String())
	}
	if rows := strings.Count(stdout.String(), "\n"); rows != 3+len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d lines of comparison:\n%s", rows, stdout.String())
	}
}

// One workload run the way the acceptance driver runs it: the last line is
// the result object, with exactly the metrics BENCHMARK.json lists.
func TestSmokeResultLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "durable.update", "--seed", "9", "--seconds", "2", "--trace", c.trace,
			"-smoke", "-dir", t.TempDir(), "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if res.Correct == nil || !*res.Correct || res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: %s", c.trace, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or without its unit %s", c.trace, d.name, d.unit)
			}
		}
		if c.trace == "0" {
			for _, d := range c.defs {
				if *res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v: must never be 0", d.name, *res.Metrics[d.name].Value)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no.such"}, {"-seconds", "0"}, {"-compare", "only-one.json"}, {"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
