package ligra

// Warmer is an optional capability of views that reach a vertex's adjacency
// through pointers (aspen flat views: table → page → chunk). On a graph
// that has been streamed into, those chunks sit wherever the allocator had
// room when a commit last rewrote them, so a scan in vertex order takes one
// serial cache miss per vertex where a freshly built graph gives the
// hardware prefetcher a stream to follow. Warm lets the scan take a whole
// block's misses at once; see Scan.
type Warmer interface {
	// Warm loads, for each id that is in range and present, the first word
	// ForEachNeighbor(id) would read from the heap, and returns a checksum of
	// those words so the loads stay live. It decodes nothing, keeps no state
	// and is total on any id. It is also the block's yield point and may
	// block: an engine's flat view waits in it while that engine applies a
	// commit (parallel.Gate).
	Warm(ids []uint32) uint32
}

// scanWidth is how many vertices' adjacency heads are warmed together: about
// as many independent misses as one core keeps in flight.
const scanWidth = 16

// Scan is the one gather → warm → scan loop under both directions of EdgeMap
// and every kernel loop that walks the neighbor lists of many vertices. On a
// Warmer it takes the vertices in blocks of scanWidth — warm the block's
// adjacency heads, then scan them in order; on any other graph (tree
// snapshots, CSR, the baselines) the same calls run the plain loop. Either
// way scan(v) is called for the same vertices in the same order, and
// ForEachNeighbor inside it stays the only neighbor decoder.
//
// NewScan resolves the capability once per kernel call; each parallel
// block then works on its own copy, which carries the block's id scratch.
// The copy escapes through the Warm call, so a kernel that counts its
// allocations keeps it in the state its neighbor callback already captures.
type Scan struct {
	warm Warmer // nil: nothing to warm, plain loops
	ids  [scanWidth]uint32
}

// NewScan returns the scan state for g.
func NewScan(g Graph) Scan {
	w, _ := g.(Warmer)
	return Scan{warm: w}
}

// Range calls scan(v) in increasing order for every v in [lo, hi) with
// c(v) true; a nil c keeps every vertex. c(v) is always asked directly
// before scan(v); on a Warmer it is also asked up to scanWidth scans earlier,
// to pick the vertices worth warming, so it must be free of side effects.
func (s *Scan) Range(lo, hi int, c func(v uint32) bool, scan func(v uint32)) {
	s.scanRange(lo, hi, nil, c, scan)
}

// scanRange is Range that also drops the vertices degs — nil, or an
// id-indexed degree array — knows to have no neighbors.
func (s *Scan) scanRange(lo, hi int, degs []int32, c func(v uint32) bool, scan func(v uint32)) {
	live := func(i int) bool {
		return !(i < len(degs) && degs[i] == 0) && (c == nil || c(uint32(i)))
	}
	if s.warm == nil {
		for i := lo; i < hi; i++ {
			if live(i) {
				scan(uint32(i))
			}
		}
		return
	}
	for lo < hi {
		end := min(lo+scanWidth, hi)
		k := 0
		for i := lo; i < end; i++ {
			if live(i) {
				s.ids[k] = uint32(i)
				k++
			}
		}
		s.warm.Warm(s.ids[:k])
		for _, v := range s.ids[:k] {
			if c == nil || c(v) {
				scan(v)
			}
		}
		lo = end
	}
}

// List calls scan(v) for every v of ids in order, warming the next
// scanWidth ids while it scans the current ones. It uses no scratch, so
// parallel blocks may share s.
func (s *Scan) List(ids []uint32, scan func(v uint32)) {
	if s.warm == nil {
		for _, v := range ids {
			scan(v)
		}
		return
	}
	s.warm.Warm(ids[:min(scanWidth, len(ids))])
	for len(ids) > 0 {
		cur := ids[:min(scanWidth, len(ids))]
		ids = ids[len(cur):]
		s.warm.Warm(ids[:min(scanWidth, len(ids))])
		for _, v := range cur {
			scan(v)
		}
	}
}
