package aspen

import "testing"

func TestHistoryAsOf(t *testing.T) {
	h := NewHistory(NewGraph(params()))
	s1 := h.InsertEdges(MakeUndirected([]Edge{{Src: 0, Dst: 1}}))
	s2 := h.InsertEdges(MakeUndirected([]Edge{{Src: 1, Dst: 2}}))
	s3 := h.DeleteEdges(MakeUndirected([]Edge{{Src: 0, Dst: 1}}))
	if h.Len() != 4 {
		t.Fatalf("retained %d versions, want 4", h.Len())
	}
	if g, ok := h.AsOf(0); !ok || g.NumEdges() != 0 {
		t.Fatal("stamp 0 should be the empty graph")
	}
	if g, ok := h.AsOf(s1); !ok || g.NumEdges() != 2 {
		t.Fatal("stamp s1 wrong")
	}
	if g, ok := h.AsOf(s2); !ok || g.NumEdges() != 4 {
		t.Fatal("stamp s2 wrong")
	}
	if g, ok := h.AsOf(s3); !ok || g.NumEdges() != 2 {
		t.Fatal("stamp s3 wrong")
	}
	// Querying between stamps resolves to the newest not-after version.
	if g, ok := h.AsOf(s3 + 100); !ok || g.NumEdges() != h.Latest().NumEdges() {
		t.Fatal("future stamp should resolve to latest")
	}
}

func TestHistoryConcurrentReads(t *testing.T) {
	h := NewHistory(NewGraph(params()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(0); i < 50; i++ {
			h.InsertEdges([]Edge{{Src: i, Dst: i + 1}})
		}
	}()
	for i := 0; i < 200; i++ {
		if g, ok := h.AsOf(uint64(i % 50)); ok {
			_ = g.NumEdges()
		}
	}
	<-done
	if h.Latest().NumEdges() != 50 {
		t.Fatalf("final edges = %d", h.Latest().NumEdges())
	}
}
