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

// wholeView decodes g's body from the empty version into a client view.
func wholeView(t testing.TB, g ligra.Graph, weighted bool) *remoteView {
	t.Helper()
	body := rpc.NewBody(readBody(t, nil, g, 0))
	var d delta
	if _, err := d.decode(&body, weighted); err != nil {
		t.Fatal(err)
	}
	v, err := d.view(weighted)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// readBody is the response body a server sends for the chunk of to from
// vertex lo on, as the diff from version from (nil: the empty version).
func readBody(t testing.TB, from, to ligra.Graph, lo uint32) []byte {
	t.Helper()
	var d delta
	status, err := d.diff(from, to, lo)
	if err != nil {
		t.Fatal(err)
	}
	return bodyOf(t, func(e *rpc.Encoder) { d.encode(e, status) })
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

// FuzzReadBody feeds arbitrary bytes to the decoder of a peer's VerbRead
// responses, on both payloads. It may not panic or hold more decoded
// elements than the frame has bytes for; a body from the empty version
// that decodes builds a view that passes checkView or is rejected, and a
// delta body is either applied to a held view with every per-vertex and
// edge-count check passing, or rejected.
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

	f.Add(readBody(f, nil, base, 0), false)
	f.Add(readBody(f, nil, next, 2), false)
	f.Add(readBody(f, nil, wnext, 0), true)
	f.Add(readBody(f, base, next, 0), false)
	f.Add(readBody(f, next, base, 0), false)
	f.Add(readBody(f, wbase, wnext, 0), true)
	f.Add([]byte{deltaNoBase}, false)
	f.Add([]byte{deltaTooLarge}, true)
	// The headers the hardening is about: counts far beyond the frame.
	f.Add(bodyOf(f, func(e *rpc.Encoder) { e.U32(1 << 31); e.U64(1 << 40); e.U32(1 << 30); e.U64(1 << 61) }), false)
	f.Add(bodyOf(f, func(e *rpc.Encoder) { e.U8(deltaOK); e.U32(1 << 31); e.U64(1 << 40); e.U8(0); e.U32(1 << 30) }), true)
	f.Add(bodyOf(f, func(e *rpc.Encoder) {
		e.U8(deltaNoBase)
		e.U32(1 << 31)
		e.U64(0)
		e.U8(0)
		e.U32(1)
		e.U32(0)
		e.U32(0)
		e.U32(0)
		e.U32(0)
	}), false)

	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		per := 1
		if weighted {
			per = 2
		}
		var d delta
		body := rpc.NewBody(data)
		status, err := d.decode(&body, weighted)
		if err != nil {
			return
		}
		if 16*len(d.verts)+4*(per*len(d.adds)+len(d.dels)) > len(data) || weighted && len(d.wts) != len(d.adds) {
			t.Fatalf("decoded %d vertices, %d adds, %d weights, %d dels from %d bytes", len(d.verts), len(d.adds), len(d.wts), len(d.dels), len(data))
		}
		if status != deltaOK {
			if v, err := d.view(weighted); err == nil {
				if v.order != len(d.verts) || uint64(len(v.nbrs)) != v.m || v.m != uint64(len(d.adds)) {
					t.Fatalf("built order %d, %d neighbors, m %d from %d vertices, %d adds", v.order, len(v.nbrs), v.m, len(d.verts), len(d.adds))
				}
				checkView(t, v)
			}
			return
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
