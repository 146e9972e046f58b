package main

import "testing"

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: 30..50 is new
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
		{Name: "grandchild", Parent: 2, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []int64{100 - (20 + 20 + 10), 20, 30 - 10, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestBatchSpansTileTheBatch(t *testing.T) {
	bt := batchTimes{due: 1000, sent: 1200, submitted: 1250, acked: 5000, visible: 5100}
	spans := bt.spans(7, []span{{Name: "earlier", Parent: -1}})
	root := spans[1]
	if root.Name != "batch" || root.ID != 7 || root.Start != 1000 || root.End != 5100 {
		t.Fatalf("root = %+v", root)
	}
	for _, s := range spans[2:] {
		if s.Parent != 1 || s.ID != 7 {
			t.Errorf("%s: parent %d id %d", s.Name, s.Parent, s.ID)
		}
	}
	if self := selfTimes(spans)[1]; self != 0 {
		t.Errorf("root self time = %d, want 0: the four calls tile it", self)
	}
	by, rootMs := spanMedians(spans, "batch")
	if rootMs != 4100e-6 || by["ack_wait"] != 3750e-6 || by["sched"] != 200e-6 {
		t.Errorf("medians: root %v by %v", rootMs, by)
	}
}

func TestQuerySpansNameTheFlatOutcome(t *testing.T) {
	qt := queryTimes{start: 0, pinned: 10, flat: 40, bfs: 90, cc: 190, closed: 200, outcome: flatPatch}
	spans := qt.spans(3, nil)
	names := ""
	for _, s := range spans {
		names += s.Name + " "
	}
	if names != "query begin flat.patch kernel.bfs kernel.cc close " {
		t.Errorf("names: %s", names)
	}
	if self := selfTimes(spans)[0]; self != 0 {
		t.Errorf("root self time = %d", self)
	}
}
