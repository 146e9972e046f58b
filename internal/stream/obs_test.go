package stream

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/obs"
)

func mkEdges(lo, hi uint64) []aspen.Edge {
	out := make([]aspen.Edge, 0, (hi-lo)*2)
	for i := lo; i < hi; i++ {
		out = append(out, aspen.Edge{Src: uint32(i), Dst: uint32(i + 1)},
			aspen.Edge{Src: uint32(i + 1), Dst: uint32(i)})
	}
	return out
}

// TestEngineMetricsUnderLoad registers a live engine, commits through
// it, and checks the exposition reflects the work: engine counters
// advance, the commit summary counts, and the stage histograms saw the
// pipeline (apply always runs; flat_patch runs under PrebuildFlat).
func TestEngineMetricsUnderLoad(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()),
		Options{PrebuildFlat: true, PatchFlat: true, TraceSlow: time.Nanosecond})
	defer e.Close()
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	for i := 0; i < 20; i++ {
		p, err := e.Insert(mkEdges(uint64(i*10), uint64(i*10+10)))
		if err != nil {
			t.Fatal(err)
		}
		p.Wait()
	}
	flushTrace(t, e)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"aspen_engine_commits_total",
		"aspen_engine_edges_total 400",
		"aspen_flat_patches_total",
		`aspen_commit_stage_seconds_count{stage="apply"}`,
		`aspen_commit_stage_seconds_count{stage="flat_patch"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "aspen_wal_appends_total") {
		t.Error("non-durable engine exposed WAL series")
	}
	if got := e.Tracer().StageHist(obs.StageApply).Count(); got < 20 {
		t.Errorf("apply stage count = %d, want >= 20", got)
	}
	// TraceSlow of 1ns means every commit lands in the slow ring.
	if _, seen := e.Tracer().Slow(); seen < 20 {
		t.Errorf("slow ring saw %d commits, want >= 20", seen)
	}
	// Stats() and the registry read the same counters — no drift.
	if st := e.Stats(); st.Edges != 400 {
		t.Errorf("Stats().Edges = %d, want 400", st.Edges)
	}
}

// flushTrace makes the stage trace of every acknowledged commit readable.
// A commit sends its acks and only then records its trace (the ack stage
// cannot be timed earlier), so right after Pending.Wait the last record may
// still be missing; Flush's marker commits strictly after the previous
// commit function has returned.
func flushTrace(t *testing.T, e *Engine[aspen.Graph, aspen.Edge]) {
	t.Helper()
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableEngineMetrics checks the WAL/checkpoint families appear on
// a durable engine, that the wal_append stage records, and that the WAL
// timed the commit's fsync. The fsync stage is only the wait that
// outlasted the apply, which is zero when the fsync finished first.
func TestDurableEngineMetrics(t *testing.T) {
	// Default policy is SyncEveryCommit, so every commit fsyncs.
	e, err := RecoverGraphEngine(testParams(), Options{}, Durability{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	p, err := e.Insert(mkEdges(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	p.Wait()
	flushTrace(t, e)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"aspen_wal_appends_total", "aspen_wal_syncs_total",
		"aspen_wal_sync_seconds_count", `aspen_wal_sync_seconds{quantile="0.5"}`,
		"aspen_checkpoints_total", "aspen_durability_failed 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("durable exposition missing %q", want)
		}
	}
	if got := e.Tracer().StageHist(obs.StageWALAppend).Count(); got == 0 {
		t.Error("wal_append stage never recorded on a durable engine")
	}
	syncs, waits := e.Stats().WAL.Syncs, e.Tracer().StageHist(obs.StageFsync).Count()
	if syncs == 0 || waits > syncs {
		t.Errorf("WAL fsyncs = %d, fsync stage waits = %d: want the commit's fsync and at most one wait per fsync", syncs, waits)
	}
	if want := fmt.Sprintf("aspen_wal_sync_seconds_count %d\n", syncs); !strings.Contains(text, want) {
		t.Errorf("exposition missing %q: every fsync is timed", want)
	}
}

// TestScrapeDuringIngest races WritePrometheus and Tracer digests
// against a saturated writer — the -race proof that scraping never
// synchronizes with (or corrupts) the commit path.
func TestScrapeDuringIngest(t *testing.T) {
	e := NewGraphEngine(aspen.NewGraph(testParams()),
		Options{QueueCap: 64, PrebuildFlat: true, PatchFlat: true, TraceSlow: time.Nanosecond})
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // saturated writer
		defer wg.Done()
		var lo uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := e.Insert(mkEdges(lo, lo+5))
			if err != nil {
				return
			}
			p.Wait()
			lo += 5
		}
	}()
	for i := 0; i < 4; i++ { // concurrent scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				e.Tracer().Summaries()
				e.Tracer().SlowViews()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	e.Close()
}
