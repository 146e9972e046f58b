package bench

import (
	"bytes"
	"strings"
	"testing"
)

// Every experiment must run end-to-end in quick mode and emit a header plus
// at least one data row.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Title] {
			continue
		}
		seen[e.Title] = true
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(&buf, cfg)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) < 2 {
				t.Fatalf("experiment %s produced no data:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("table2"); !ok {
		t.Fatal("table2 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestDatasetCaching(t *testing.T) {
	d := datasets(true)[0]
	a := d.Adjacency()
	b := d.Adjacency()
	if &a[0] != &b[0] {
		t.Fatal("adjacency not cached")
	}
}

func TestMemoryAccountingOrdering(t *testing.T) {
	// DE must be the smallest format, uncompressed the largest.
	d := datasets(true)[0]
	var sizes []uint64
	for _, f := range aspenFormats(128) {
		sizes = append(sizes, aspenMemoryBytes(d.AspenGraph(f.p)))
	}
	if !(sizes[0] > sizes[1] && sizes[1] >= sizes[2]) {
		t.Fatalf("expected Uncomp > NoDE >= DE, got %v", sizes)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in regular mode only")
	}
	var buf bytes.Buffer
	RunAll(&buf, Config{Quick: true})
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("RunAll missing experiments")
	}
	// Headers appear in Experiments order; rows sharing a title share one.
	out, at := buf.String(), -1
	for _, e := range Experiments {
		i := strings.Index(out, "== "+e.Title+" ==\n")
		if i < 0 {
			t.Fatalf("RunAll missing header for %s", e.ID)
		}
		if i < at {
			t.Fatalf("header for %s out of Experiments order", e.ID)
		}
		at = i
	}
}
