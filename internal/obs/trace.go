package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage enumerates the commit pipeline: enqueue (submit to ingest-loop
// pickup), coalesce (folding the commit group), WAL append, fsync,
// functional tree apply, flat-view build/patch, and ack (waking the
// submitters). They run in that order except the fsync, which runs beside
// the apply: its stage is only the part the commit still waited for after
// the apply returned, so the stages tile enqueue to ack (the whole fsync
// is the WAL's own aspen_wal_sync_seconds). A stage that did not run for
// a commit (no WAL without durability, no flat stage without
// PrebuildFlat, no fsync wait when the fsync finished first) records zero
// and is excluded from its histogram.
type Stage uint8

const (
	StageEnqueue Stage = iota
	StageCoalesce
	StageWALAppend
	StageFsync
	StageApply
	StageFlatPatch
	StageAck
	NumStages int = iota
)

var stageNames = [NumStages]string{
	"enqueue", "coalesce", "wal_append", "fsync", "apply", "flat_patch", "ack",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageTrace is one commit's timing record. The engine keeps a single
// persistent StageTrace per ingest goroutine and reuses it every
// commit, so recording never allocates; the tracer copies it into the
// slow ring by value when it crosses the threshold.
type StageTrace struct {
	Stamp   uint64                   `json:"stamp"`
	Edges   int                      `json:"edges"`
	Batches int                      `json:"batches"`
	Durs    [NumStages]time.Duration `json:"-"`
}

// Total is the sum over all stages — enqueue-to-ack latency of the
// oldest batch in the commit group.
func (t *StageTrace) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.Durs {
		sum += d
	}
	return sum
}

// StageTraceView is the JSON shape of one slow-commit trace
// (/statusz and the -trace-slow dump): per-stage durations keyed by
// stage name, in nanoseconds.
type StageTraceView struct {
	Stamp   uint64           `json:"stamp"`
	Edges   int              `json:"edges"`
	Batches int              `json:"batches"`
	TotalNS time.Duration    `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns"`
}

// View renders the trace for JSON output, dropping zero stages.
func (t *StageTrace) View() StageTraceView {
	v := StageTraceView{
		Stamp:   t.Stamp,
		Edges:   t.Edges,
		Batches: t.Batches,
		TotalNS: t.Total(),
		Stages:  make(map[string]int64, NumStages),
	}
	for i, d := range t.Durs {
		if d > 0 {
			v.Stages[Stage(i).String()] = int64(d)
		}
	}
	return v
}

// slowRingSize bounds the in-memory ring of recent slow-commit traces.
const slowRingSize = 64

// StageTracer aggregates per-stage latency histograms and keeps a
// bounded ring of recent slow commits. Record is allocation-free; the
// ring mutex is taken only for commits over the slow threshold. The
// zero StageTracer is ready to use (slow-trace capture disabled until
// SetSlowThreshold).
type StageTracer struct {
	hists  [NumStages]Hist
	thresh atomic.Int64 // nanoseconds; 0 disables the slow ring

	mu   sync.Mutex
	ring [slowRingSize]StageTrace
	next int    // ring write cursor
	seen uint64 // slow traces recorded since start (may exceed ring size)
}

// SetSlowThreshold arms the slow ring: commits whose total stage time
// is ≥ d are copied into it. 0 disables capture (histograms still
// record).
func (t *StageTracer) SetSlowThreshold(d time.Duration) {
	t.thresh.Store(int64(d))
}

// SlowThreshold returns the current threshold (0 = disabled).
func (t *StageTracer) SlowThreshold() time.Duration {
	return time.Duration(t.thresh.Load())
}

// Record folds one commit's trace into the per-stage histograms and,
// when its total crosses the slow threshold, into the slow ring. tr is
// copied; the caller reuses it for the next commit. Stages with zero
// duration did not run and are not observed.
func (t *StageTracer) Record(tr *StageTrace) {
	var total time.Duration
	for i := range tr.Durs {
		d := tr.Durs[i]
		if d > 0 {
			t.hists[i].Observe(d)
			total += d
		}
	}
	th := t.thresh.Load()
	if th <= 0 || total < time.Duration(th) {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = *tr
	t.next = (t.next + 1) % slowRingSize
	t.seen++
	t.mu.Unlock()
}

// StageHist exposes one stage's histogram (readers digest it; the
// tracer keeps writing).
func (t *StageTracer) StageHist(s Stage) *Hist { return &t.hists[s] }

// Summaries digests every stage histogram at once.
func (t *StageTracer) Summaries() [NumStages]LatencySummary {
	var out [NumStages]LatencySummary
	for i := range t.hists {
		out[i] = t.hists[i].Summary()
	}
	return out
}

// Slow snapshots the slow ring, newest first. The second result is the
// total number of slow commits recorded (the ring keeps the most recent
// slowRingSize of them).
func (t *StageTracer) Slow() ([]StageTrace, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.seen, slowRingSize))
	out := make([]StageTrace, 0, n)
	for i := 0; i < n; i++ {
		idx := (t.next - 1 - i + 2*slowRingSize) % slowRingSize
		out = append(out, t.ring[idx])
	}
	return out, t.seen
}

// SlowViews is Slow rendered for JSON output.
func (t *StageTracer) SlowViews() ([]StageTraceView, uint64) {
	traces, seen := t.Slow()
	views := make([]StageTraceView, len(traces))
	for i := range traces {
		views[i] = traces[i].View()
	}
	return views, seen
}

// Register adds the per-stage latency summaries to reg as
// <name>{stage="..."} series (seconds).
func (t *StageTracer) Register(reg *Registry, name, help string, labels ...Label) {
	for i := range t.hists {
		ls := make([]Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		ls = append(ls, Label{Key: "stage", Value: Stage(i).String()})
		reg.Summary(name, help, &t.hists[i], ls...)
	}
}
