package main

import (
	"sync/atomic"
	"time"

	"repro/internal/algos"
)

// phaseResult is what one write phase measured.
type phaseResult struct {
	times   []batchTimes
	elapsed time.Duration // phase start to the last ack
	// failure counts by where they surfaced
	submitErrs, ackErrs, pinErrs, uncovered int
	lastAck                                 vec
}

// sleepUntil sleeps to shortly before t and spins the rest: timer wake-ups
// alone overshoot by more than the lateness the paced phase has to prove.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// drive sends batches to st from one generator (this goroutine) while one
// acker goroutine collects acknowledgements in order.
//
// rate > 0 is the open loop: batch i is due at start + i/rate and is sent
// then whether or not earlier batches were acknowledged (inflight must be
// len(batches) so admission never blocks), and its latency is timed from
// the due time, so a stall charges every batch it delays. rate == 0 is the
// closed loop: a batch is sent as soon as fewer than inflight are
// unacknowledged.
//
// With pinEach the acker follows every ack with a fresh pin, checks that
// the pinned stamps cover the ack, and only then marks the batch visible.
func drive(st store, batches []batch, rate float64, inflight int, pinEach bool) phaseResult {
	type sentBatch struct {
		i int
		w waiter
	}
	res := phaseResult{times: make([]batchTimes, len(batches))}
	// Both channels hold one slot per admitted batch, so neither the
	// generator's hand-off nor the acker's release ever blocks.
	sem := make(chan struct{}, inflight)
	acks := make(chan sentBatch, inflight)
	done := make(chan struct{})
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }

	go func() {
		defer close(done)
		for sb := range acks {
			t := &res.times[sb.i]
			a, err := sb.w.wait()
			t.acked = since()
			<-sem
			if err != nil {
				t.failed = true
				res.ackErrs++
				continue
			}
			res.lastAck = a
			res.elapsed = time.Duration(t.acked)
			if pinEach {
				p, err := st.begin()
				if err != nil {
					t.failed = true
					res.pinErrs++
					continue
				}
				covered := p.stamps().covers(a)
				p.close()
				if !covered {
					t.failed = true
					res.uncovered++
				}
			}
			t.visible = since()
		}
	}()

	for i, b := range batches {
		t := &res.times[i]
		if rate > 0 {
			t.due = int64(float64(i) / rate * float64(time.Second))
			sleepUntil(start.Add(time.Duration(t.due)))
		}
		sem <- struct{}{}
		t.sent = since()
		if rate == 0 {
			t.due = t.sent
		}
		w, err := st.submit(b.del, b.edges)
		t.submitted = since()
		if err != nil {
			<-sem
			t.failed = true
			res.submitErrs++
			continue
		}
		acks <- sentBatch{i, w}
	}
	close(acks)
	<-done
	return res
}

// visibleMs returns the due→visible latency of every batch that became
// visible, in milliseconds.
func (r *phaseResult) visibleMs() []float64 {
	out := make([]float64, 0, len(r.times))
	for _, t := range r.times {
		if !t.failed {
			out = append(out, float64(t.visible-t.due)/1e6)
		}
	}
	return out
}

// lateShare is the share of batches that failed or missed the limit.
func (r *phaseResult) lateShare(limit time.Duration) float64 {
	late := 0
	for _, t := range r.times {
		if t.failed || t.visible-t.due > int64(limit) {
			late++
		}
	}
	return float64(late) / float64(len(r.times))
}

// backlog counts the batches not yet visible at instant at (ns since the
// phase started).
func (r *phaseResult) backlog(at int64) int {
	n := 0
	for _, t := range r.times {
		if t.failed || t.visible > at {
			n++
		}
	}
	return n
}

// queryResult is what one read loop measured.
type queryResult struct {
	times   []queryTimes // the first len(times) queries; later ones are only counted
	ran     int
	errs    int
	dropped int // queries run after the buffer was full
}

// queries runs query transactions back to back on this goroutine — begin,
// flat view, BFS from the first fixed source, connected components, close — until
// stop is set or limit (when positive) is reached. Both kernels run in
// every transaction: alternating them would make the latency sample
// bimodal and park its median on the boundary between the two modes.
// With classify the stacking's flat-view counters are read around the
// flat call to label its outcome (two reads of a few atomics, charged to
// the flat span).
func queries(st store, stop *atomic.Bool, limit, capacity int, classify bool) queryResult {
	res := queryResult{times: make([]queryTimes, 0, capacity)}
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	for q := 0; !stop.Load() && (limit <= 0 || q < limit); q++ {
		var t queryTimes
		res.ran++
		t.start = since()
		p, err := st.begin()
		t.pinned = since()
		if err != nil {
			res.errs++
			continue
		}
		var b0, p0 uint64
		if classify {
			b0, p0 = st.flatCounts()
		}
		g, err := p.flat()
		if err != nil {
			p.close()
			res.errs++
			continue
		}
		if classify {
			b1, p1 := st.flatCounts()
			switch {
			case b1 > b0:
				t.outcome = flatBuild
			case p1 > p0:
				t.outcome = flatPatch
			default:
				t.outcome = flatHit
			}
		}
		t.flat = since()
		reach := algos.BFS(g, bfsSources[0], false).Visited
		t.bfs = since()
		labels := algos.ConnectedComponents(g)
		t.cc = since()
		p.close()
		t.closed = since()
		if reach == 0 || len(labels) == 0 {
			res.errs++ // the source is a vertex of every generated graph
			continue
		}
		if len(res.times) < cap(res.times) {
			res.times = append(res.times, t)
		} else {
			res.dropped++
		}
	}
	return res
}

// totalMs returns begin→close of every recorded query in milliseconds.
func (r *queryResult) totalMs() []float64 {
	out := make([]float64, len(r.times))
	for i, t := range r.times {
		out[i] = float64(t.closed-t.start) / 1e6
	}
	return out
}
