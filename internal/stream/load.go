package stream

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ligra"
	"repro/internal/obs"
)

// Kernel is a named analytics query run on pinned snapshots — any algos
// kernel (BFS, CC, SSSP, ...) closed over its parameters. Every view a
// Store hands out is a ligra.Graph; weighted kernels type-assert
// ligra.WeightedGraph.
type Kernel struct {
	Name string
	Run  func(g ligra.Graph)
}

// Workload drives the paper's §7.8 experiment against a live Store: one
// writer goroutine sustains batched updates while Readers goroutines issue
// queries on pinned snapshots, for Duration. All latencies are measured
// end-to-end (commit: enqueue → visible; query: pin → close).
type Workload[E any] struct {
	Store Store[E]
	// NextBatch returns the i-th update batch of the stream (del reports
	// a deletion batch). Called only from the writer goroutine. Nil means
	// an idle writer (the query-only baseline).
	NextBatch func(i uint64) (del bool, edges []E)
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Kernels are cycled round-robin by every reader.
	Kernels []Kernel
	// Duration is how long the writer sustains updates; readers stop with
	// the writer.
	Duration time.Duration
	// Interval, when positive, paces the writer to one batch per Interval
	// (an offered-load experiment: commit latency is measured at that
	// rate). Zero saturates: submit as fast as the store accepts (latency
	// then includes queue backpressure).
	Interval time.Duration
	// UseFlat runs kernels on the snapshot's flat view instead of its tree
	// view. Deployments without a tree view always serve the flat one.
	UseFlat bool
	// Stop, when non-nil, ends the run early once closed (graceful
	// shutdown): the writer stops submitting (a pacing wait is interrupted),
	// everything already submitted is flushed, and readers drain as usual.
	Stop <-chan struct{}
}

// UpdateScheduleMix returns the §7.8 writer schedule: period-1 insert
// batches of fresh generator edges followed by 1 delete batch replaying
// the oldest recently inserted range (so deletions perform real work),
// repeating. Period 10 is the paper's 9:1 insert/delete mix, period 2 the
// delete-heavy expiry mix that stresses the incremental-maintenance paths
// (flat-view patching, IncrementalCC splits). period < 2 (or a dry replay
// buffer) degenerates to inserts only; the buffer keeps a few spans in
// flight so deletes never chase the batch just inserted. start is the
// first unconsumed generator index, batch the edges drawn per batch, and
// mk materializes a generator range [lo, hi) as updates. The returned
// closure is single-goroutine (writer-only), like NextBatch.
func UpdateScheduleMix[E any](start, batch, period uint64, mk func(lo, hi uint64) []E) func(i uint64) (bool, []E) {
	type span struct{ lo, hi uint64 }
	var recent []span
	pos := start
	return func(i uint64) (bool, []E) {
		if period >= 2 && i%period == period-1 && len(recent) > 4 {
			s := recent[0]
			recent = recent[1:]
			return true, mk(s.lo, s.hi)
		}
		lo := pos
		pos += batch
		recent = append(recent, span{lo, pos})
		return false, mk(lo, pos)
	}
}

// KernelStat pairs a kernel with its query-latency digest.
type KernelStat struct {
	Name    string             `json:"name"`
	Latency obs.LatencySummary `json:"latency"`
}

// Report is the outcome of one Workload run — the §7.8 numbers. Counters
// are deltas over the run, so a store that already served traffic (or was
// preloaded through its own ingest path) measures only this run's updates;
// latency digests and LiveVersions are store-lifetime.
type Report struct {
	Shards        int           `json:"shards"`
	Duration      time.Duration `json:"duration_ns"`
	Readers       int           `json:"readers"`
	Updates       uint64        `json:"updates"`         // directed edge updates applied
	UpdatesPerSec float64       `json:"updates_per_sec"` // sustained, over Duration
	Commits       uint64        `json:"commits"`
	Batches       uint64        `json:"batches"`
	Coalesce      float64       `json:"coalesce_factor"` // batches per commit

	// Commit is the commit-latency digest of the shard with the highest
	// p99 — tail latency is the serving metric, and the slowest shard is
	// the tail. PerShard carries every shard's full counters, except the
	// writer-priority counts (PriorityHolds, PriorityDeclined, ReaderWait),
	// which are deltas over the run like the counters above.
	Commit   obs.LatencySummary `json:"commit_latency"`
	PerShard []Stats            `json:"per_shard,omitempty"`

	Queries       uint64             `json:"queries"`
	QueriesPerSec float64            `json:"queries_per_sec"`
	Query         obs.LatencySummary `json:"query_latency"`
	PerKernel     []KernelStat       `json:"per_kernel"`
	// QueryErrs counts queries whose pin or view fetch failed.
	QueryErrs uint64 `json:"query_errs,omitempty"`
	// SubmitErr is the error that stopped the writer early, or failed the
	// final flush; empty when every submitted batch committed.
	SubmitErr string `json:"submit_err,omitempty"`
	// StatsErr is a failed counter read (StoreStats.Err) before or after
	// the run; the counts then miss the unreadable shards' share.
	StatsErr string `json:"stats_err,omitempty"`

	// LiveVersions and RetiredVersions are sampled after the run drains:
	// live must equal Shards (only each shard's current version) when every
	// reader exited, proving retired snapshots were released.
	LiveVersions    int64    `json:"live_versions"`
	RetiredVersions uint64   `json:"retired_versions"`
	FinalStamps     []uint64 `json:"final_stamps"`

	// Flat* prove the flat-cache contract under load: builds + patches ≤
	// versions published + 1 per shard (under Options.PatchFlat all but the
	// first are O(batch) patches) while hits cover every other query.
	// Stitch* are the cross-shard equivalents.
	FlatBuilds    uint64 `json:"flat_builds"`
	FlatPatches   uint64 `json:"flat_patches,omitempty"`
	FlatHits      uint64 `json:"flat_hits"`
	StitchBuilds  uint64 `json:"stitch_builds,omitempty"`
	StitchPatches uint64 `json:"stitch_patches,omitempty"`
	StitchHits    uint64 `json:"stitch_hits,omitempty"`

	// Detail is StoreStats.Detail at the end of the run.
	Detail any `json:"detail,omitempty"`
}

// query runs kernel k on a freshly pinned snapshot.
func (w *Workload[E]) query(k Kernel) error {
	snap, err := w.Store.Pin()
	if err != nil {
		return err
	}
	defer snap.Close()
	var g ligra.Graph
	if !w.UseFlat {
		g = snap.Tree()
	}
	if g == nil {
		if g, err = snap.Flat(); err != nil {
			return err
		}
	}
	k.Run(g)
	return nil
}

// sleep waits for d unless Stop closes first; reports whether the writer
// should keep going. A nil Stop never fires.
func (w *Workload[E]) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.Stop:
		return false
	case <-t.C:
		return true
	}
}

func (w *Workload[E]) stopped() bool {
	select {
	case <-w.Stop:
		return true
	default:
		return false
	}
}

// Run executes the workload and reports: readers cycle Kernels round-robin
// while the writer feeds NextBatch to the store until the deadline, then
// everything submitted is flushed and the readers join. The store is left
// open (Close it separately).
func (w *Workload[E]) Run() Report {
	before := w.Store.Stats()
	kh := make([]obs.Hist, len(w.Kernels))
	var queryHist obs.Hist
	var queryErrs atomic.Uint64
	var done atomic.Bool

	var readers sync.WaitGroup
	for r := 0; r < w.Readers && len(w.Kernels) > 0; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; !done.Load(); i++ {
				k := i % len(w.Kernels)
				t0 := time.Now()
				if w.query(w.Kernels[k]) != nil {
					queryErrs.Add(1)
					continue
				}
				d := time.Since(t0)
				queryHist.Observe(d)
				kh[k].Observe(d)
			}
		}(r)
	}

	// Writer: pipeline batches through the store until the deadline, then
	// flush so every submitted batch is committed.
	var submitErr error
	start := time.Now()
	deadline := start.Add(w.Duration)
	if w.NextBatch == nil {
		w.sleep(w.Duration)
	}
	for i := uint64(0); w.NextBatch != nil && time.Now().Before(deadline) && !w.stopped(); i++ {
		// Absolute schedule: batch i is due at start + i*Interval, so a
		// slow commit doesn't shift the whole offered load.
		if due := time.Until(start.Add(time.Duration(i) * w.Interval)); due > 0 && !w.sleep(due) {
			break
		}
		del, edges := w.NextBatch(i)
		if submitErr = w.Store.Submit(del, edges); submitErr != nil {
			break
		}
	}
	stamps, err := w.Store.Flush()
	if submitErr == nil {
		submitErr = err
	}
	elapsed := time.Since(start)
	done.Store(true)
	readers.Wait()

	st := w.Store.Stats()
	rep := Report{
		Shards:          st.Shards,
		Duration:        elapsed,
		Readers:         w.Readers,
		Updates:         st.Edges - before.Edges,
		UpdatesPerSec:   float64(st.Edges-before.Edges) / elapsed.Seconds(),
		Commits:         st.Commits - before.Commits,
		Batches:         st.Batches - before.Batches,
		PerShard:        st.PerShard,
		Queries:         queryHist.Count(),
		QueriesPerSec:   float64(queryHist.Count()) / elapsed.Seconds(),
		Query:           queryHist.Summary(),
		QueryErrs:       queryErrs.Load(),
		LiveVersions:    st.LiveVersions,
		RetiredVersions: st.RetiredVersions - before.RetiredVersions,
		FinalStamps:     stamps,
		FlatBuilds:      st.FlatBuilds - before.FlatBuilds,
		FlatPatches:     st.FlatPatches - before.FlatPatches,
		FlatHits:        st.FlatHits - before.FlatHits,
		StitchBuilds:    st.StitchBuilds - before.StitchBuilds,
		StitchPatches:   st.StitchPatches - before.StitchPatches,
		StitchHits:      st.StitchHits - before.StitchHits,
		Detail:          st.Detail,
	}
	rep.Coalesce = Stats{Commits: rep.Commits, Batches: rep.Batches}.CoalesceFactor()
	if submitErr != nil {
		rep.SubmitErr = submitErr.Error()
	}
	rep.StatsErr = cmp.Or(st.Err, before.Err)
	// A shard whose counters could not be read reports zeros (StatsErr), so
	// the deltas stop at zero.
	for i, b := range before.PerShard {
		es := &rep.PerShard[i]
		es.PriorityHolds -= min(b.PriorityHolds, es.PriorityHolds)
		es.PriorityDeclined -= min(b.PriorityDeclined, es.PriorityDeclined)
		es.ReaderWait -= min(b.ReaderWait, es.ReaderWait)
	}
	for _, es := range st.PerShard {
		if es.Commit.P99 >= rep.Commit.P99 {
			rep.Commit = es.Commit
		}
	}
	for i, k := range w.Kernels {
		rep.PerKernel = append(rep.PerKernel, KernelStat{Name: k.Name, Latency: kh[i].Summary()})
	}
	sort.Slice(rep.PerKernel, func(i, j int) bool { return rep.PerKernel[i].Name < rep.PerKernel[j].Name })
	return rep
}
