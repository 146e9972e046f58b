package obs

import (
	"strings"
	"testing"
	"time"
)

// parseExposition does a minimal 0.0.4 text-format parse: every
// non-comment line must be `name{labels} value` or `name value`, every
// series must follow a HELP+TYPE pair for its family, and no family may
// be introduced twice.
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := make(map[string]string)
	helped := make(map[string]bool)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found || (typ != "counter" && typ != "gauge" && typ != "summary") {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			if typed[name] {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		key, value, found := strings.Cut(line, " ")
		if !found || value == "" || strings.Contains(value, " ") {
			t.Fatalf("line %d: not `key value`: %q", ln+1, line)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = key[:i]
		}
		// _sum/_count series belong to the summary family they suffix.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: series %s before its TYPE", ln+1, name)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, key)
		}
		samples[key] = value
	}
	return samples
}

func scrape(t *testing.T, r *Registry) map[string]string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return parseExposition(t, sb.String())
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_depth", "Queue depth.", Label{Key: "lane", Value: "priority"})
	g.Set(7)
	g.Add(-2)
	r.CounterFunc("test_reads_total", "Reads.", func() uint64 { return 9 })
	r.GaugeFunc("test_ratio", "A fraction.", func() float64 { return 0.25 })
	var h Hist
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	r.Summary("test_latency_seconds", "Latency.", &h)

	samples := scrape(t, r)
	if got := samples["test_ops_total"]; got != "42" {
		t.Errorf("counter = %q, want 42", got)
	}
	if got := samples[`test_depth{lane="priority"}`]; got != "5" {
		t.Errorf("gauge = %q, want 5", got)
	}
	if got := samples["test_reads_total"]; got != "9" {
		t.Errorf("counter func = %q, want 9", got)
	}
	if got := samples["test_ratio"]; got != "0.25" {
		t.Errorf("gauge func = %q, want 0.25", got)
	}
	if got := samples["test_latency_seconds_count"]; got != "100" {
		t.Errorf("summary count = %q, want 100", got)
	}
	if _, ok := samples[`test_latency_seconds{quantile="0.5"}`]; !ok {
		t.Errorf("missing p50 quantile series; have %v", samples)
	}
	// _sum is 1+2+...+100 ms = 5.05 s.
	if got := samples["test_latency_seconds_sum"]; got != "5.05" {
		t.Errorf("summary sum = %q, want 5.05", got)
	}
}

func TestRegistryMultiSeriesFamily(t *testing.T) {
	r := NewRegistry()
	for _, shard := range []string{"0", "1", "2"} {
		r.CounterFunc("test_commits_total", "Commits.",
			func() uint64 { return 1 }, Label{Key: "shard", Value: shard})
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if n := strings.Count(text, "# TYPE test_commits_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want once", n)
	}
	samples := parseExposition(t, text)
	if len(samples) != 3 {
		t.Errorf("got %d series, want 3: %v", len(samples), samples)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_weird", "Escapes.", func() float64 { return 1 },
		Label{Key: "path", Value: `C:\tmp "x"` + "\n"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `test_weird{path="C:\\tmp \"x\"\n"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, sb.String())
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "z")
	r.Gauge("aaa", "a")
	names := r.Names()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "zzz_total" {
		t.Errorf("Names() = %v, want sorted [aaa zzz_total]", names)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_thing", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_thing", "x")
}

func TestRegistryDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup_total", "x", Label{Key: "a", Value: "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (name, labels) did not panic")
		}
	}()
	r.Counter("test_dup_total", "x", Label{Key: "a", Value: "b"})
}

// TestInstrumentAllocs pins the zero-allocation contract of the hot
// instruments: counter/gauge updates and histogram observes on the
// commit path must not allocate. Counter.Add and Hist.Observe are the ops
// of BenchmarkObsCounterAdd and BenchmarkHistObserve.
func TestInstrumentAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_allocs_total", "x")
	g := r.Gauge("test_allocs_gauge", "x")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, counterAddOp()); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, histObserveOp()); n != 0 {
		t.Errorf("Hist.Observe allocates %v/op", n)
	}
}
