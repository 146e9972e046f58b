package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func mkTrace(stamp uint64, total time.Duration) StageTrace {
	tr := StageTrace{Stamp: stamp, Edges: 10, Batches: 2}
	tr.Durs[StageApply] = total / 2
	tr.Durs[StageAck] = total - total/2
	return tr
}

func TestStageNames(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < NumStages; i++ {
		n := Stage(i).String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("stage %d has bad/duplicate name %q", i, n)
		}
		seen[n] = true
	}
	if Stage(NumStages).String() != "unknown" {
		t.Errorf("out-of-range stage should be unknown")
	}
	if StageEnqueue.String() != "enqueue" || StageAck.String() != "ack" {
		t.Errorf("stage order broken: %s..%s", StageEnqueue, StageAck)
	}
}

func TestTracerHistograms(t *testing.T) {
	var tr StageTracer
	rec := mkTrace(1, 2*time.Millisecond)
	tr.Record(&rec)
	if got := tr.StageHist(StageApply).Count(); got != 1 {
		t.Errorf("apply count = %d, want 1", got)
	}
	// Zero-duration stages must not be observed.
	if got := tr.StageHist(StageFsync).Count(); got != 0 {
		t.Errorf("fsync count = %d, want 0 (stage did not run)", got)
	}
	sums := tr.Summaries()
	if _, ran := sums["fsync"]; sums["apply"].Count != 1 || ran {
		t.Errorf("Summaries() = %+v", sums)
	}
}

func TestTracerThresholdGating(t *testing.T) {
	var tr StageTracer
	// Threshold unset: nothing is retained.
	rec := mkTrace(1, 10*time.Millisecond)
	tr.Record(&rec)
	if traces, seen := tr.Slow(); seen != 0 || len(traces) != 0 {
		t.Fatalf("disarmed tracer retained %d/%d traces", len(traces), seen)
	}
	tr.SetSlowThreshold(5 * time.Millisecond)
	if got := tr.SlowThreshold(); got != 5*time.Millisecond {
		t.Fatalf("SlowThreshold = %v", got)
	}
	fast := mkTrace(2, time.Millisecond)
	slow := mkTrace(3, 6*time.Millisecond)
	tr.Record(&fast)
	tr.Record(&slow)
	traces, seen := tr.Slow()
	if seen != 1 || len(traces) != 1 || traces[0].Stamp != 3 {
		t.Fatalf("Slow() = %+v seen=%d, want one trace with stamp 3", traces, seen)
	}
}

func TestTracerRingBoundedNewestFirst(t *testing.T) {
	var tr StageTracer
	tr.SetSlowThreshold(1)
	const n = slowRingSize + 10
	for i := 1; i <= n; i++ {
		rec := mkTrace(uint64(i), time.Millisecond)
		tr.Record(&rec)
	}
	traces, seen := tr.Slow()
	if seen != n {
		t.Fatalf("seen = %d, want %d", seen, n)
	}
	if len(traces) != slowRingSize {
		t.Fatalf("retained %d traces, want %d", len(traces), slowRingSize)
	}
	for i, got := range traces {
		if want := uint64(n - i); got.Stamp != want {
			t.Fatalf("traces[%d].Stamp = %d, want %d (newest first)", i, got.Stamp, want)
		}
	}
}

func TestTraceView(t *testing.T) {
	rec := mkTrace(7, 4*time.Millisecond)
	v := rec.View()
	if v.Stamp != 7 || v.Edges != 10 || v.Batches != 2 {
		t.Fatalf("View header = %+v", v)
	}
	if v.TotalNS != rec.Total() {
		t.Errorf("TotalNS = %v, want %v", v.TotalNS, rec.Total())
	}
	if len(v.Stages) != 2 {
		t.Errorf("Stages = %v, want apply+ack only", v.Stages)
	}
	if v.Stages["apply"]+v.Stages["ack"] != int64(4*time.Millisecond) {
		t.Errorf("stage sum = %v, want 4ms", v.Stages)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back StageTraceView
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stamp != v.Stamp || back.Stages["apply"] != v.Stages["apply"] {
		t.Errorf("JSON round-trip lost data: %+v vs %+v", back, v)
	}
}

func TestTracerRegister(t *testing.T) {
	var tr StageTracer
	rec := mkTrace(1, time.Millisecond)
	tr.Record(&rec)
	r := NewRegistry()
	tr.Register(r, "test_stage_seconds", "Stage latency.")
	samples := scrape(t, r)
	if _, ok := samples[`test_stage_seconds_count{stage="apply"}`]; !ok {
		t.Errorf("missing apply stage series; have %v", samples)
	}
	if got := samples[`test_stage_seconds_count{stage="apply"}`]; got != "1" {
		t.Errorf("apply count = %q, want 1", got)
	}
}

// TestRecordAllocs pins the zero-allocation contract of the per-commit
// trace record, with and without the slow ring armed (the armed path
// copies into a fixed array under a mutex — still no allocation): the ops
// of BenchmarkStageTraceRecord and BenchmarkStageTraceRecordSlow.
func TestRecordAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, stageTraceRecordOp()); n != 0 {
		t.Errorf("Record (disarmed) allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, stageTraceRecordSlowOp()); n != 0 {
		t.Errorf("Record (slow path) allocates %v/op", n)
	}
}
