package aspen

import (
	"sort"
	"sync"
)

// History retains every published version of an evolving graph and answers
// time-travel queries — the "historical queries" the paper's conclusion
// singles out as a natural extension, since purely-functional trees keep any
// number of versions alive simply by keeping their roots (§8.1). Retention
// is O(1) per version beyond the structural sharing the trees already pay.
type History struct {
	mu       sync.RWMutex
	stamps   []uint64
	versions []Graph
	// pins holds the acquired version handle backing each retained entry
	// (nil for the initial stamp-0 entry, which predates the store's
	// version sequence). Retention therefore participates in the epoch
	// refcounting: a retained version is never retired until TrimBefore
	// releases its pin, and each pin is released exactly once.
	pins []*Version[Graph]
	vg   *Versioned[Graph]
}

// NewHistory wraps an initial graph, retaining it as stamp 0.
func NewHistory(g Graph) *History {
	return &History{
		stamps:   []uint64{0},
		versions: []Graph{g},
		pins:     []*Version[Graph]{nil},
		vg:       NewVersioned(g),
	}
}

// Versioned exposes the underlying versioned store (for concurrent readers).
func (h *History) Versioned() *Versioned[Graph] { return h.vg }

// retain records the just-published version, keeping v's reference pinned
// until TrimBefore.
func (h *History) retain(stamp uint64, v *Version[Graph]) {
	h.mu.Lock()
	h.stamps = append(h.stamps, stamp)
	h.versions = append(h.versions, v.Graph)
	h.pins = append(h.pins, v)
	h.mu.Unlock()
}

// InsertEdges publishes a new version with the batch inserted and retains it.
func (h *History) InsertEdges(edges []Edge) uint64 {
	stamp := h.vg.Update(func(g Graph) Graph { return g.InsertEdges(edges) })
	h.retain(stamp, h.vg.Acquire())
	return stamp
}

// DeleteEdges publishes a new version with the batch deleted and retains it.
func (h *History) DeleteEdges(edges []Edge) uint64 {
	stamp := h.vg.Update(func(g Graph) Graph { return g.DeleteEdges(edges) })
	h.retain(stamp, h.vg.Acquire())
	return stamp
}

// TrimBefore drops every retained version with stamp < s, keeping the rest
// (the newest version is always kept even if its stamp is below s, so
// Latest never dangles). Each dropped entry's pinned reference is released
// exactly once, so superseded versions with no other readers are retired —
// with the retire hook firing — by this call. Returns the number of
// versions dropped.
func (h *History) TrimBefore(s uint64) int {
	h.mu.Lock()
	cut := sort.Search(len(h.stamps), func(i int) bool { return h.stamps[i] >= s })
	if cut == len(h.stamps) {
		cut = len(h.stamps) - 1 // always keep the newest
	}
	drop := make([]*Version[Graph], cut)
	copy(drop, h.pins[:cut])
	h.stamps = append([]uint64(nil), h.stamps[cut:]...)
	h.versions = append([]Graph(nil), h.versions[cut:]...)
	h.pins = append([]*Version[Graph](nil), h.pins[cut:]...)
	h.mu.Unlock()
	// Release outside the lock: the retire hook runs on whichever goroutine
	// drops the last reference and must not re-enter History under mu.
	for _, v := range drop {
		if v != nil {
			h.vg.Release(v)
		}
	}
	return cut
}

// Len returns the number of retained versions.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.stamps)
}

// AsOf returns the newest version with stamp <= s.
func (h *History) AsOf(s uint64) (Graph, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	i := sort.Search(len(h.stamps), func(i int) bool { return h.stamps[i] > s })
	if i == 0 {
		return Graph{}, false
	}
	return h.versions[i-1], true
}

// Latest returns the newest retained version.
func (h *History) Latest() Graph {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.versions[len(h.versions)-1]
}
