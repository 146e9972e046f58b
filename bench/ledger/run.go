package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/csr"
	"repro/internal/ligra"
)

// runConfig is one run's settings: everything but the workload.
type runConfig struct {
	sh      shape
	seed    uint64
	seconds int
	traced  bool
	dataDir string // WAL and checkpoint directories are made under it
	outDir  string // trace files are written here
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples states how many measurements stand behind each percentile.
	Samples map[string]int `json:"samples"`
	// problems lists every failed check in words, for the operator.
	problems []string
}

func (r *runResult) fail(n int, format string, args ...any) {
	if n > 0 {
		r.Failed += n
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// system is one set-up stacking with the inputs it will be fed.
type system struct {
	st       store
	in       inputs
	dir      string
	baseline uint64 // live heap before the stacking was built
	took     time.Duration
}

// liveHeap forces a collection and reads the heap still in use.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp generates the stream, builds the stacking, preloads it through its
// own submit path and warms the read path. The timed part is everything a
// user would wait for before the first batch; the heap reading in the
// middle is the ledger's own and is left out.
func setUp(w workload, cfg runConfig, pacedN, satN int) (system, error) {
	var sys system
	t0 := time.Now()
	sys.in = generate(cfg.seed, cfg.sh, w, pacedN, satN)
	gen := time.Since(t0)

	sys.baseline = liveHeap()

	t1 := time.Now()
	if w.durable {
		dir, err := os.MkdirTemp(cfg.dataDir, "ledger-")
		if err != nil {
			return sys, err
		}
		sys.dir = dir
	}
	st, err := open(w, cfg.sh, sys.dir)
	if err != nil {
		sys.remove()
		return sys, err
	}
	sys.st = st
	if err := preload(st, sys.in.preload); err != nil {
		sys.tearDown()
		return sys, err
	}
	sys.took = gen + time.Since(t1)
	return sys, nil
}

// preload feeds the base graph through the stacking's own submit path,
// before timing, then runs one query so the first flat view and the first
// connections exist ("let caches fill and lazy set-up finish").
func preload(st store, edges []aspen.Edge) error {
	w, err := st.submit(false, edges)
	if err != nil {
		return fmt.Errorf("preload submit: %w", err)
	}
	if _, err := w.wait(); err != nil {
		return fmt.Errorf("preload ack: %w", err)
	}
	var never atomic.Bool
	if q := queries(st, &never, 1, 1, false); q.errs > 0 {
		return fmt.Errorf("warm-up query failed")
	}
	return nil
}

func (s *system) remove() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func (s *system) tearDown() error {
	var err error
	if s.st != nil {
		err = s.st.close()
	}
	s.remove()
	return err
}

// runWorkload runs workload w once: set-up, the paced phase (with its reader
// when the workload has one), the saturated phase, the quiet queries of
// reader-less workloads, the memory reading, the checks against the
// reference, recovery, and — traced — the layer probes and the trace file.
func runWorkload(w workload, cfg runConfig) (runResult, error) {
	pacedSecs := float64(cfg.seconds) * cfg.sh.pacedShare
	pacedN := int(math.Round(w.pacedRate * pacedSecs))
	satN := int(math.Round(w.satRate * (float64(cfg.seconds) - pacedSecs)))

	// Set up several times and report the median, so one slow directory
	// creation or page-cache miss does not decide setup_s. The last set-up
	// is the one measured.
	var sys system
	var setups []float64
	for rep := 0; rep < cfg.sh.setupReps; rep++ {
		if rep > 0 {
			if err := sys.tearDown(); err != nil {
				return runResult{}, fmt.Errorf("tear down set-up %d: %w", rep, err)
			}
		}
		var err error
		if sys, err = setUp(w, cfg, pacedN, satN); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sys.took.Seconds())
	}
	res, err := measure(w, cfg, &sys)
	res.Metrics["setup_s"] = median(setups)
	if cerr := sys.tearDown(); cerr != nil && err == nil {
		res.Attempted++
		res.fail(1, "close: %v", cerr)
	}
	return res, err
}

// measure drives the set-up system through the phases. It replaces sys.st
// when it reopens the stacking for the recovery measurement.
func measure(w workload, cfg runConfig, sys *system) (runResult, error) {
	res := runResult{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	st := sys.st
	pacedN, satN := len(sys.in.paced), len(sys.in.saturated)
	rt0 := readRuntime()
	c0 := st.counters()

	// Paced phase: open-loop writer, and the reader beside it.
	var stopReader atomic.Bool
	var reads queryResult
	readerDone := make(chan struct{})
	if w.reader {
		go func() {
			defer close(readerDone)
			reads = queries(st, &stopReader, 0, maxQueriesPerSecond*cfg.seconds, cfg.traced)
		}()
	} else {
		close(readerDone)
	}
	paced := drive(st, sys.in.paced, w.pacedRate, pacedN, true)
	stopReader.Store(true)
	<-readerDone
	c1 := st.counters()

	// Saturated phase: closed loop, at most window batches in flight.
	sat := drive(st, sys.in.saturated, 0, window, false)
	c2 := st.counters()
	rt1 := readRuntime()

	// A workload without a reader still answers queries — after its stream
	// ends, on a quiet system — so query_p50_ms exists for every workload.
	if !w.reader {
		var never atomic.Bool
		reads = queries(st, &never, cfg.sh.quietTx, cfg.sh.quietTx, cfg.traced)
	}

	// Memory: what the stacking keeps alive beyond the generator's own
	// slices — the tree, the final snapshot's flat view, caches, buffers —
	// per directed edge resident in that snapshot. Read with the final
	// snapshot pinned and its view built, so the state is the same every
	// run whichever version the last query happened to see.
	final, err := st.begin()
	if err != nil {
		return res, fmt.Errorf("final begin: %w", err)
	}
	flat, err := final.flat()
	if err != nil {
		final.close()
		return res, fmt.Errorf("final flat: %w", err)
	}
	heap := liveHeap()

	// End-to-end metrics.
	vis := paced.visibleMs()
	qs := reads.totalMs()
	res.Samples["visible"] = len(vis)
	res.Samples["query"] = len(qs)
	m := res.Metrics
	m["visible_p50_ms"] = percentile(vis, 0.50)
	m["visible_p99_ms"] = percentile(vis, 0.99)
	m["ingest_edges_per_s"] = ratio(float64(directedEdges(sys.in.saturated)), sat.elapsed.Seconds())
	m["query_p50_ms"] = percentile(qs, 0.50)
	m["bytes_per_edge"] = ratio(float64(heap-min(heap, sys.baseline)), float64(flat.NumEdges()))
	m["late_share"] = paced.lateShare(visibleLimit)
	m["recover_s"] = 0 // nothing to recover in memory

	// Failures so far: every batch is one submit and, in the paced phase,
	// one visibility check; every query is one read.
	res.Attempted = 2*pacedN + satN + reads.ran
	res.fail(paced.submitErrs+sat.submitErrs, "%d submits refused", paced.submitErrs+sat.submitErrs)
	res.fail(paced.ackErrs+sat.ackErrs, "%d batches not acknowledged", paced.ackErrs+sat.ackErrs)
	res.fail(paced.pinErrs, "%d pins failed", paced.pinErrs)
	res.fail(paced.uncovered, "%d acks not covered by the next pin", paced.uncovered)
	res.fail(reads.errs, "%d queries failed", reads.errs)

	// Checks against the reference, on the live stacking.
	ref := reference(sys.in)
	res.Attempted += 2 + len(bfsSources)
	if !final.stamps().covers(sat.lastAck) {
		res.fail(1, "final pin %v does not cover the last ack %v", final.stamps(), sat.lastAck)
	}
	res.fail(checkSnapshot(flat, ref), "final snapshot differs from the reference replay")
	final.close()

	// Recovery: close, reopen the same directory, first pin.
	if w.durable {
		res.Attempted += 2 + len(bfsSources)
		t0 := time.Now()
		if err := st.close(); err != nil {
			res.fail(1, "close before recovery: %v", err)
		}
		st, err = open(w, cfg.sh, sys.dir)
		if err != nil {
			sys.st = nil // closed above; nothing left for the caller's tear-down
			return res, fmt.Errorf("recover: %w", err)
		}
		sys.st = st
		p, err := st.begin()
		if err != nil {
			return res, fmt.Errorf("begin after recovery: %w", err)
		}
		m["recover_s"] = time.Since(t0).Seconds()
		rflat, err := p.flat()
		if err != nil {
			res.fail(1, "flat after recovery: %v", err)
		} else {
			res.fail(checkSnapshot(rflat, ref), "recovered snapshot differs from the reference replay")
		}
		p.close()
	}

	if cfg.traced {
		tr := layerReport{w: w, cfg: cfg, paced: &paced, sat: &sat, reads: &reads,
			pacedC: c1.sub(c0), satC: c2.sub(c1), rt: rt1.sub(rt0), in: sys.in}
		if err := tr.fill(m, res.Samples); err != nil {
			return res, err
		}
		if err := tr.writeTrace(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), m); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkSnapshot compares a pinned snapshot's flat view with the reference
// and returns the number of mismatches found, at most 1 + len(bfsSources):
// the whole graph edge by edge, then the reach of a BFS from each fixed
// source.
func checkSnapshot(flat ligra.Graph, ref *csr.Graph) int {
	bad := 0
	if !sameEdges(flat, ref) {
		bad++
	}
	for _, src := range bfsSources {
		if algos.BFS(flat, src, false).Visited != algos.BFS(ref, src, false).Visited {
			bad++
		}
	}
	return bad
}

// sameEdges reports whether g and ref hold the same directed edges. Both
// list a vertex's neighbours in increasing order, so every list of g must
// equal ref's; with equal edge counts ref then has no edge g lacks.
func sameEdges(g ligra.Graph, ref *csr.Graph) bool {
	if g.NumEdges() != ref.NumEdges() {
		return false
	}
	var want []uint32
	for u := 0; u < g.Order(); u++ {
		want = want[:0]
		if u < ref.Order() {
			ref.ForEachNeighbor(uint32(u), func(v uint32) bool { want = append(want, v); return true })
		}
		i, same := 0, true
		g.ForEachNeighbor(uint32(u), func(v uint32) bool {
			same = i < len(want) && want[i] == v
			i++
			return same
		})
		if !same || i != len(want) {
			return false
		}
	}
	return true
}
