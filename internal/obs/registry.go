package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metric registry rendering the Prometheus
// text exposition format. Registration (engine/cluster construction
// time) takes a mutex; the instruments themselves are single atomic
// words, so incrementing on the commit path costs one uncontended
// atomic add and zero allocations.
//
// Memory-ordering contract: every instrument is a relaxed atomic — an
// increment is visible to a concurrent scrape eventually and each
// series is monotone (counters) or last-write-wins (gauges), but a
// scrape is NOT a consistent cut across instruments. A reader may see
// aspen_engine_commits_total already incremented while
// aspen_engine_edges_total still shows the previous commit, because the
// writer updates them with independent atomic operations and no fence
// orders them for the scraper. Derived ratios (edges per commit,
// coalesce factor) are therefore approximate while ingest is running
// and exact only at quiescence — the same contract the Stats() structs
// this registry federates have always had.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// Label is one metric label pair, rendered at registration time so the
// scrape path never re-escapes or re-joins labels.
type Label struct {
	Key   string
	Value string
}

// family is every series sharing one metric name (HELP/TYPE emitted once).
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "summary"
	series []series
}

// series is one labeled instrument inside a family. Exactly one of
// read/hist is set: read yields the current value of a counter or
// gauge; hist backs a summary family.
type series struct {
	labels string // pre-rendered `key="value",...` (no braces), may be ""
	read   func() float64
	hist   *Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels joins labels into the `k="v",...` body, escaping values.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register adds one series to the named family, creating the family on
// first use. Registering the same name with a different type is a
// programming error and panics; registering the same (name, labels)
// twice likewise — duplicate series would render an ill-formed
// exposition.
func (r *Registry) register(name, help, typ string, labels []Label, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	s.labels = renderLabels(labels)
	for _, old := range f.series {
		if old.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter is a monotone counter owned by the registry caller. The zero
// value is usable before registration; Add/Inc are one atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, series{read: func() float64 { return float64(c.v.Load()) }})
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, series{read: func() float64 { return float64(g.v.Load()) }})
	return g
}

// CounterFunc registers a read-through counter series over an existing
// monotone source (an atomic.Uint64 already owned by an engine or
// client struct) — the "one source of truth" federation path: the
// owner keeps its counter and accessors, the registry only reads it at
// scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, "counter", labels, series{read: func() float64 { return float64(fn()) }})
}

// CounterFloatFunc is CounterFunc over a source that is not a whole
// number, such as a total time in seconds.
func (r *Registry) CounterFloatFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", labels, series{read: fn})
}

// GaugeFunc registers a read-through gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, series{read: fn})
}

// Summary registers an existing histogram as a Prometheus summary
// family: quantile series (0.5, 0.95, 0.99) plus _sum and _count, all
// rendered in seconds. The histogram stays owned by its writer; the
// registry digests it at scrape time.
func (r *Registry) Summary(name, help string, h *Hist, labels ...Label) {
	r.register(name, help, "summary", labels, series{hist: h})
}

// WritePrometheus renders every family in registration order in the
// text exposition format (version 0.0.4): HELP/TYPE once per family,
// one line per series, summaries as quantile series plus _sum/_count in
// seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.series {
			if s.hist != nil {
				writeSummary(&b, f.name, s.labels, s.hist)
				continue
			}
			b.WriteString(f.name)
			if s.labels != "" {
				b.WriteByte('{')
				b.WriteString(s.labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.read()))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSummary renders one histogram as summary series in seconds.
func writeSummary(b *strings.Builder, name, labels string, h *Hist) {
	sum := h.Summary()
	q := func(qv string, d float64) {
		b.WriteString(name)
		b.WriteByte('{')
		if labels != "" {
			b.WriteString(labels)
			b.WriteByte(',')
		}
		b.WriteString(`quantile="`)
		b.WriteString(qv)
		b.WriteString(`"} `)
		b.WriteString(formatValue(d / 1e9))
		b.WriteByte('\n')
	}
	q("0.5", float64(sum.P50))
	q("0.95", float64(sum.P95))
	q("0.99", float64(sum.P99))
	suffix := func(sfx string, v float64) {
		b.WriteString(name)
		b.WriteString(sfx)
		if labels != "" {
			b.WriteByte('{')
			b.WriteString(labels)
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatValue(v))
		b.WriteByte('\n')
	}
	suffix("_sum", float64(h.Sum())/1e9)
	suffix("_count", float64(sum.Count))
}

// formatValue renders a sample value: integers without an exponent,
// everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Names returns the registered family names, sorted — test and /statusz
// introspection.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
