package remote

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rpc"
)

// bodyOf runs build through a real frame encode and decode and returns a
// copy of the body a peer would read.
func bodyOf(t testing.TB, build func(e *rpc.Encoder)) []byte {
	t.Helper()
	var e rpc.Encoder
	e.Begin(rpc.VerbRead, rpc.FlagResp, 1)
	build(&e)
	fr, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := rpc.NewReader(bytes.NewReader(fr)).Next()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(m.Body)
}

// wholeView decodes g's whole-range body into a client view.
func wholeView(t testing.TB, g ligra.Graph, weighted bool) *remoteView {
	t.Helper()
	body := rpc.NewBody(bodyOf(t, func(e *rpc.Encoder) { encodeRange(e, g, weighted, 0) }))
	var b rangeBuilder
	if _, err := b.chunk(&body, weighted); err != nil {
		t.Fatal(err)
	}
	v, err := b.view(weighted)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkView asserts the invariants every served view holds: one sorted
// list per vertex, as long as its degree, adding up to m.
func checkView(t *testing.T, v *remoteView) {
	t.Helper()
	var sum uint64
	for u := 0; u < v.order; u++ {
		nbrs, wts := v.list(uint32(u))
		if len(nbrs) != int(v.degs[u]) || v.weighted && len(wts) != len(nbrs) {
			t.Fatalf("vertex %d: degree %d, %d neighbors, %d weights", u, v.degs[u], len(nbrs), len(wts))
		}
		sum += uint64(len(nbrs))
	}
	if sum != v.m {
		t.Fatalf("lists hold %d edges, m = %d", sum, v.m)
	}
}

// FuzzReadBody feeds arbitrary bytes to the two decoders that read a
// peer's VerbRead responses, on both payloads: the whole-range chunk and
// the delta (decode, then patch against a held view). Neither may panic or
// hold more decoded elements than the frame has bytes for, and a body that
// decodes is either applied with every per-vertex and edge-count check
// passing, or rejected.
func FuzzReadBody(f *testing.F) {
	p := testParams()
	base := aspen.NewGraph(p).InsertEdges(aspen.MakeUndirected([]aspen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 5}, {Src: 3, Dst: 4}, {Src: 0, Dst: 7}}))
	next := base.InsertEdges(aspen.MakeUndirected([]aspen.Edge{{Src: 0, Dst: 3}, {Src: 6, Dst: 9}})).
		DeleteEdges(aspen.MakeUndirected([]aspen.Edge{{Src: 1, Dst: 2}}))
	wedge := func(u, v uint32, w float32) []aspen.WeightedEdge {
		return []aspen.WeightedEdge{{Src: u, Dst: v, Val: w}, {Src: v, Dst: u, Val: w}}
	}
	wbase := aspen.NewWeightedGraphWith(p).InsertEdges(slices.Concat(wedge(0, 1, 1), wedge(1, 2, 2), wedge(2, 5, 3), wedge(3, 4, 4)))
	wnext := wbase.InsertEdges(slices.Concat(wedge(0, 1, 9), wedge(6, 8, 5))).DeleteEdges(wedge(3, 4, 0))
	held := map[bool]*remoteView{false: wholeView(f, base, false), true: wholeView(f, wbase, true)}

	deltaBody := func(from, to ligra.Graph) []byte {
		var d delta
		status := d.diff(from, to, 0)
		return bodyOf(f, func(e *rpc.Encoder) { d.encode(e, status) })
	}
	f.Add(bodyOf(f, func(e *rpc.Encoder) { encodeRange(e, base, false, 0) }), false)
	f.Add(bodyOf(f, func(e *rpc.Encoder) { encodeRange(e, next, false, 2) }), false)
	f.Add(bodyOf(f, func(e *rpc.Encoder) { encodeRange(e, wnext, true, 0) }), true)
	f.Add(deltaBody(base, next), false)
	f.Add(deltaBody(next, base), false)
	f.Add(deltaBody(wbase, wnext), true)
	f.Add([]byte{deltaNoBase}, false)
	f.Add([]byte{deltaTooLarge}, true)
	// The headers the hardening is about: counts far beyond the frame.
	f.Add(bodyOf(f, func(e *rpc.Encoder) { e.U32(1 << 31); e.U64(1 << 40); e.U32(1 << 30); e.U64(1 << 61) }), false)
	f.Add(bodyOf(f, func(e *rpc.Encoder) { e.U8(deltaOK); e.U32(1 << 31); e.U64(1 << 40); e.U8(0); e.U32(1 << 30) }), true)

	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		per := 1
		if weighted {
			per = 2
		}
		var b rangeBuilder
		body := rpc.NewBody(data)
		if _, err := b.chunk(&body, weighted); err == nil {
			if 4*(len(b.degs)+per*len(b.nbrs)) > len(data) || weighted && len(b.wts) != len(b.nbrs) {
				t.Fatalf("whole-range chunk decoded %d degrees, %d neighbors, %d weights from %d bytes", len(b.degs), len(b.nbrs), len(b.wts), len(data))
			}
			if v, err := b.view(weighted); err == nil {
				checkView(t, v)
			}
		}

		var d delta
		body = rpc.NewBody(data)
		status, err := d.decode(&body, weighted)
		if err != nil || status != deltaOK {
			return
		}
		if 16*len(d.verts)+4*(per*len(d.adds)+len(d.dels)) > len(data) || weighted && len(d.wts) != len(d.adds) {
			t.Fatalf("delta decoded %d vertices, %d adds, %d weights, %d dels from %d bytes", len(d.verts), len(d.adds), len(d.wts), len(d.dels), len(data))
		}
		before := copyView(viewOf(held[weighted]))
		if nv, err := held[weighted].patch(&d); err == nil {
			checkView(t, nv)
			if nv.order != int(d.order) || nv.m != d.m {
				t.Fatalf("patched to order %d, m %d; delta said %d, %d", nv.order, nv.m, d.order, d.m)
			}
		}
		if diff := copyView(viewOf(held[weighted])).diff(before); diff != "" {
			t.Fatalf("patch mutated the held view: %s", diff)
		}
	})
}

// viewOf wraps v with the capability its payload has.
func viewOf(v *remoteView) ligra.Graph {
	if v.weighted {
		return remoteWeightedView{v}
	}
	return v
}
