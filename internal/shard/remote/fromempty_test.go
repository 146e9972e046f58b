package remote

import (
	"testing"

	"repro/internal/aspen"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/stream"
)

// TestFromEmptyReadSparseShard reads shards whose order is far above their
// edge count: shard 0 holds only 5 → 500 (order 501, one edge), shard 1 one
// edge near the top of its range. A freshly dialed client holds nothing, so
// each shard is read as its diff from the empty version, which must list
// every id up to order for the client to size its view from what it
// received — the view must be the model's, with the in-process order.
func TestFromEmptyReadSparseShard(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<9)
	t.Run("graph", func(t *testing.T) {
		_, addrs := startServers(t, part, false)
		sparseRead(t, func() stream.Store[aspen.Edge] {
			c, err := DialGraph(part, addrs, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c.Store()
		}, shard.NewGraphCluster(part, testParams(), stream.Options{}).Store(),
			[]aspen.Edge{{Src: 5, Dst: 500}, {Src: 510, Dst: 3}},
			func(e aspen.Edge) (uint32, uint32, float32) { return e.Src, e.Dst, 0 })
	})
	t.Run("weighted", func(t *testing.T) {
		addrs := startWeightedServers(t, part)
		sparseRead(t, func() stream.Store[aspen.WeightedEdge] {
			c, err := DialWeighted(part, addrs, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c.Store()
		}, shard.NewWeightedCluster(part, testParams(), stream.Options{}).Store(),
			[]aspen.WeightedEdge{{Src: 5, Dst: 500, Val: 2.5}, {Src: 510, Dst: 3, Val: 7}},
			func(e aspen.WeightedEdge) (uint32, uint32, float32) { return e.Src, e.Dst, e.Val })
	})
	t.Run("bodies", fromEmptyBodies)
}

// sparseRead writes edges through one client and the in-process cluster,
// then checks a second, freshly dialed client's view against both.
func sparseRead[E any](t *testing.T, dial func() stream.Store[E], in stream.Store[E], edges []E, ends func(E) (u, v uint32, w float32)) {
	defer in.Close()
	model := adjacency{}
	for _, e := range edges {
		u, v, w := ends(e)
		model.apply(false, u, v, w)
	}
	w := dial()
	defer w.Close()
	for _, st := range []stream.Store[E]{w, in} {
		if err := st.Submit(false, edges); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	r := dial()
	defer r.Close()
	rs, err := r.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	got, err := rs.Flat()
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, "fresh remote view", got)
	is, err := in.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer is.Close()
	want, err := is.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != want.Order() {
		t.Fatalf("remote order %d, in-process %d", got.Order(), want.Order())
	}
}

// fromEmptyBodies feeds decode bodies from the empty version that do not
// list every id of the shard once; each must be refused before anything is
// sized from it.
func fromEmptyBodies(t *testing.T) {
	body := func(d delta) []byte {
		return bodyOf(t, func(e *rpc.Encoder) { d.encode(e, deltaNoBase) })
	}
	ok := delta{order: 3, m: 1, verts: []deltaVertex{{id: 0}, {id: 1, deg: 1, nAdd: 1}, {id: 2}}, adds: []uint32{0}}
	bad := map[string]delta{
		"skipped id":             {order: 3, m: 1, verts: []deltaVertex{{id: 0}, {id: 2, deg: 1, nAdd: 1}}, adds: []uint32{0}},
		"order past the last id": {order: 5, m: 1, verts: ok.verts, adds: ok.adds},
		"a delete":               {order: 3, m: 1, verts: []deltaVertex{{id: 0}, {id: 1, deg: 1, nAdd: 1, nDel: 1}, {id: 2}}, adds: []uint32{0}, dels: []uint32{2}},
	}
	var d delta
	b := rpc.NewBody(body(ok))
	if _, err := d.decode(&b, false); err != nil {
		t.Fatalf("a well-formed body was refused: %v", err)
	}
	if _, err := d.view(false); err != nil {
		t.Fatalf("a well-formed body built no view: %v", err)
	}
	for name, bd := range bad {
		var d delta
		b := rpc.NewBody(body(bd))
		if _, err := d.decode(&b, false); err == nil {
			t.Errorf("%s: decoded %d vertices", name, len(d.verts))
		}
	}
}
