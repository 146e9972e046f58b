package obs

import (
	"testing"
	"time"
)

// Instrumentation must stay free on the commit path: a counter add, a
// histogram observe and a stage-trace record, armed or not, allocate
// nothing. TestInstrumentAllocs and TestRecordAllocs hold these ops at 0
// allocs/op; TestWritePrometheusAllocs bounds the scrape path.

func counterAddOp() func() {
	c := NewRegistry().Counter("bench_ops_total", "x")
	return func() { c.Add(1) }
}

func histObserveOp() func() {
	var h Hist
	var i time.Duration
	return func() {
		i++
		h.Observe(i)
	}
}

func stageTraceRecordOp() func() {
	var tr StageTracer
	rec := StageTrace{Stamp: 1, Edges: 100, Batches: 4}
	rec.Durs[StageCoalesce] = 20 * time.Microsecond
	rec.Durs[StageApply] = 300 * time.Microsecond
	rec.Durs[StageFlatPatch] = 80 * time.Microsecond
	rec.Durs[StageAck] = 5 * time.Microsecond
	return func() { tr.Record(&rec) }
}

func stageTraceRecordSlowOp() func() {
	var tr StageTracer
	tr.SetSlowThreshold(1) // every record takes the ring path
	rec := StageTrace{Stamp: 1, Edges: 100, Batches: 4}
	rec.Durs[StageApply] = 300 * time.Microsecond
	return func() { tr.Record(&rec) }
}

func writePrometheusOp(tb testing.TB) func() {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		c := r.Counter("bench_family_total", "x",
			Label{Key: "shard", Value: string(rune('0' + i))})
		c.Add(uint64(i))
	}
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	r.Summary("bench_latency_seconds", "x", &h)
	return func() {
		if err := r.WritePrometheus(discard{}); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkObsCounterAdd(b *testing.B)        { benchOp(b, counterAddOp()) }
func BenchmarkHistObserve(b *testing.B)          { benchOp(b, histObserveOp()) }
func BenchmarkStageTraceRecord(b *testing.B)     { benchOp(b, stageTraceRecordOp()) }
func BenchmarkStageTraceRecordSlow(b *testing.B) { benchOp(b, stageTraceRecordSlowOp()) }
func BenchmarkWritePrometheus(b *testing.B)      { benchOp(b, writePrometheusOp(b)) }

// TestWritePrometheusAllocs holds a scrape of eight counters and a summary
// at its pinned 24 allocs/op × 1.15. Re-pinning it edits the number here
// with a BENCHMARKS.md line saying why.
func TestWritePrometheusAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, writePrometheusOp(t)); n > 24*1.15 {
		t.Errorf("WritePrometheus: %.0f allocs/op, gate 24 × 1.15", n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
