package main

import "sort"

// span is one timed call into a layer's public API, made from the ledger's
// own files. All spans of one batch or one query share its index as ID;
// Parent is the index of the enclosing span in the same slice, -1 for a
// root. Times are nanoseconds since the phase started; Self is filled in
// when the trace is written.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // "batch" or "query"
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are counted
// once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, edge), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] -= covered
	}
	return out
}

// batchTimes is the preallocated trace record of one batch: the boundaries
// of every call the generator and the acker make on its behalf, as
// nanoseconds since the phase started. Each field has exactly one writer —
// due, sent and submitted the generator, the rest the acker, which reads
// nothing before the channel hand-off — so no lock is needed.
type batchTimes struct {
	due       int64 // when the schedule said to send
	sent      int64 // submit call entered (sent-due is generator lateness)
	submitted int64 // submit call returned (backpressure ends)
	acked     int64 // wait returned
	visible   int64 // a fresh pin covering the ack was taken and released
	failed    bool
}

// spans renders the record as a root with the four calls that tile it.
func (t batchTimes) spans(id int, out []span) []span {
	root := len(out)
	out = append(out, span{Name: "batch", Kind: "batch", ID: id, Parent: -1, Start: t.due, End: t.visible})
	for _, c := range []struct {
		name     string
		from, to int64
	}{
		{"sched", t.due, t.sent},
		{"submit", t.sent, t.submitted},
		{"ack_wait", t.submitted, t.acked},
		{"pin", t.acked, t.visible},
	} {
		out = append(out, span{Name: c.name, Kind: "batch", ID: id, Parent: root, Start: c.from, End: c.to})
	}
	return out
}

// flat-view outcomes of one query, read from the stacking's counters.
const (
	flatUnknown = iota
	flatBuild
	flatPatch
	flatHit
)

var flatOutcomeNames = [...]string{"", "build", "patch", "hit"}

// queryTimes is the trace record of one query transaction.
type queryTimes struct {
	start   int64 // begin entered
	pinned  int64 // begin returned
	flat    int64 // flat returned
	bfs     int64 // BFS returned
	cc      int64 // connected components returned
	closed  int64 // close returned
	outcome uint8
}

func (t queryTimes) spans(id int, out []span) []span {
	root := len(out)
	out = append(out, span{Name: "query", Kind: "query", ID: id, Parent: -1, Start: t.start, End: t.closed})
	flatName := "flat"
	if t.outcome != flatUnknown {
		flatName += "." + flatOutcomeNames[t.outcome]
	}
	for _, c := range []struct {
		name     string
		from, to int64
	}{
		{"begin", t.start, t.pinned},
		{flatName, t.pinned, t.flat},
		{"kernel.bfs", t.flat, t.bfs},
		{"kernel.cc", t.bfs, t.cc},
		{"close", t.cc, t.closed},
	} {
		out = append(out, span{Name: c.name, Kind: "query", ID: id, Parent: root, Start: c.from, End: c.to})
	}
	return out
}
