package aspen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/ctree"
	"repro/internal/graphio"
	"repro/internal/parallel"
)

// This file converts graphs to and from graphio.Snapshot, the checkpoint
// format of the durability subsystem. The export walks the immutable
// vertex-tree (so it can run on a pinned snapshot concurrently with the
// writer), and the import rebuilds the trees bottom-up with the same
// parallel construction FromAdjacency uses. Because batch application is
// deterministic, a graph imported from a checkpoint and then replayed
// through the same WAL suffix reconverges with the pre-crash state.

// Snapshot flattens g into its serializable form: each edge's payload is
// interleaved into the payload section as its little-endian byte image
// (Width = the payload size; 0 and no payload for Graph, 4 for a
// WeightedGraph's float32). Vertex ids are preserved exactly — gaps and
// isolated vertices survive the round trip.
func (g GraphOf[V]) Snapshot() *graphio.Snapshot {
	verts, trees := vertices(g.table(), g.cls, g.vt)
	offs := make([]uint64, len(trees)+1)
	for i, et := range trees {
		offs[i+1] = offs[i] + et.Size()
	}
	m := offs[len(offs)-1]
	w := uint64(payloadWidth[V]())
	s := &graphio.Snapshot{Width: int(w), Verts: verts, Offs: offs, Edges: make([]uint32, m)}
	if w > 0 {
		s.Payload = make([]byte, w*m)
	}
	parallel.ForGrain(len(trees), 16, func(i int) {
		k := offs[i]
		if w == 0 { // the id-only walk is ~30% faster than ForEachKV's
			trees[i].ForEach(func(v uint32) bool {
				s.Edges[k] = v
				k++
				return true
			})
			return
		}
		trees[i].ForEachKV(func(v uint32, val V) bool {
			s.Edges[k] = v
			putPayload(s.Payload[w*k:], val)
			k++
			return true
		})
	})
	return s
}

// bigEndian reports the host byte order; snapshot payloads are little-endian
// whatever the host's.
var bigEndian = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// payloadBytes returns the in-memory byte image of *v.
func payloadBytes[V ctree.Value](v *V) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v))
}

// payloadWidth returns the byte width of V; 0 is the id-only struct{}.
func payloadWidth[V ctree.Value]() int {
	var zero V
	return int(unsafe.Sizeof(zero))
}

// putPayload writes v's little-endian image to the front of dst. The byte
// order swap is exact for the scalar payloads (float32, uint64) this
// repository stores.
func putPayload[V ctree.Value](dst []byte, v V) {
	b := dst[:copy(dst, payloadBytes(&v))]
	if bigEndian {
		slices.Reverse(b)
	}
}

// getPayload decodes the value putPayload wrote at the front of src.
func getPayload[V ctree.Value](src []byte) (v V) {
	b := payloadBytes(&v)
	copy(b, src)
	if bigEndian {
		slices.Reverse(b)
	}
	return v
}

// FromSnapshot rebuilds a graph from its snapshot form; the payload width
// must be V's. The snapshot's structure was already validated by
// graphio.ReadSnapshot; the per-vertex neighbor order is checked here
// (building a C-tree from an unsorted list would corrupt it silently), so a
// damaged-but-checksum-valid file still cannot produce an invalid graph.
func FromSnapshot[V ctree.Value](p ctree.Params, s *graphio.Snapshot) (GraphOf[V], error) {
	w := payloadWidth[V]()
	if s.Width != w {
		return GraphOf[V]{}, fmt.Errorf("aspen: snapshot has payload width %d, want %d: %w", s.Width, w, graphio.ErrCorrupt)
	}
	if err := checkSnapshotOrder(s); err != nil {
		return GraphOf[V]{}, err
	}
	g, proto := NewGraphOf[V](p), ctree.NewKV[V](p)
	return g.with(buildPages(g.ops, s.Verts, func(i int) ctree.Tree[V] {
		lo, hi := s.Offs[i], s.Offs[i+1]
		var vals []V
		if w > 0 {
			vals = make([]V, hi-lo)
			for j := range vals {
				vals[j] = getPayload[V](s.Payload[uint64(w)*(lo+uint64(j)):])
			}
		}
		return proto.BuildLike(s.Edges[lo:hi], vals)
	})), nil
}

// GraphFromSnapshot rebuilds an id-only graph from its snapshot form.
func GraphFromSnapshot(p ctree.Params, s *graphio.Snapshot) (Graph, error) {
	return FromSnapshot[struct{}](p, s)
}

// WeightedGraphFromSnapshot rebuilds a weighted graph from its snapshot form.
func WeightedGraphFromSnapshot(p ctree.Params, s *graphio.Snapshot) (WeightedGraph, error) {
	return FromSnapshot[float32](p, s)
}

// checkSnapshotOrder verifies every neighbor list is strictly increasing.
func checkSnapshotOrder(s *graphio.Snapshot) error {
	var bad atomic.Bool
	parallel.ForGrain(len(s.Verts), 16, func(i int) {
		nbrs := s.Edges[s.Offs[i]:s.Offs[i+1]]
		for j := 1; j < len(nbrs); j++ {
			if nbrs[j-1] >= nbrs[j] {
				bad.Store(true)
				return
			}
		}
	})
	if bad.Load() {
		return fmt.Errorf("aspen: snapshot neighbor lists not strictly increasing: %w", graphio.ErrCorrupt)
	}
	return nil
}

// Equal reports whether g and o are the same logical graph: the same vertex
// set and, per vertex, the same neighbors with bit-identical payloads (so a
// NaN weight equals itself and +0 differs from −0, as a checkpoint round trip
// requires). Vertices whose edge trees are pointer-identical across the two
// graphs (the common case when one version derives from the other) compare
// in O(1) via EqualRep; only genuinely divergent trees are walked. Needed by
// crash-recovery verification, where the recovered graph was rebuilt from
// disk and shares no pointers with the original.
func (g GraphOf[V]) Equal(o GraphOf[V]) bool {
	if g.vt == o.vt {
		return true
	}
	if g.NumVertices() != o.NumVertices() || g.NumEdges() != o.NumEdges() {
		return false
	}
	equal := true
	g.ForEachVertex(func(u uint32, et ctree.Tree[V]) bool {
		ot, ok := o.EdgeTree(u)
		if !ok || !treesEqual(et, ot) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

func treesEqual[V ctree.Value](a, b ctree.Tree[V]) bool {
	if a.EqualRep(b) {
		return true
	}
	if a.Size() != b.Size() {
		return false
	}
	type kv struct { // payload first: a trailing struct{} would pad kv
		val V
		v   uint32
	}
	kvs := make([]kv, 0, a.Size())
	a.ForEachKV(func(v uint32, val V) bool {
		kvs = append(kvs, kv{val, v})
		return true
	})
	i, same := 0, true
	b.ForEachKV(func(v uint32, val V) bool {
		if kvs[i].v != v || !bytes.Equal(payloadBytes(&kvs[i].val), payloadBytes(&val)) {
			same = false
			return false
		}
		i++
		return true
	})
	return same
}
