package remote

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/aspen"
	"repro/internal/ligra"
	"repro/internal/rmat"
	"repro/internal/shard"
	"repro/internal/stream"
)

// adjacency is the reference model of the conformance suite: neighbor →
// weight per vertex (weight 0 on unweighted rows), updated batch by batch.
type adjacency map[uint32]map[uint32]float32

func (m adjacency) apply(del bool, u, v uint32, w float32) {
	if del {
		delete(m[u], v)
		return
	}
	if m[u] == nil {
		m[u] = map[uint32]float32{}
	}
	m[u][v] = w
}

// check compares a view's every adjacency list (and weights, when the view
// has them) with the model.
func (m adjacency) check(t *testing.T, what string, g ligra.Graph) {
	t.Helper()
	var edges uint64
	for _, nb := range m {
		edges += uint64(len(nb))
	}
	if g.NumEdges() != edges {
		t.Fatalf("%s: NumEdges = %d, want %d", what, g.NumEdges(), edges)
	}
	wg, weighted := g.(ligra.WeightedGraph)
	for u := uint32(0); int(u) < g.Order(); u++ {
		want := make([]uint32, 0, len(m[u]))
		for v := range m[u] {
			want = append(want, v)
		}
		slices.Sort(want)
		var got []uint32
		g.ForEachNeighbor(u, func(v uint32) bool { got = append(got, v); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: neighbors of %d = %v, want %v", what, u, got, want)
		}
		if weighted {
			wg.ForEachNeighborW(u, func(v uint32, w float32) bool {
				if w != m[u][v] {
					t.Fatalf("%s: weight(%d,%d) = %v, want %v", what, u, v, w, m[u][v])
				}
				return true
			})
		}
	}
}

// storeRow is one deployment of the conformance table.
type storeRow[E any] struct {
	name      string
	shards    int
	inProcess bool // the store's engines live (and drain) in this process
	open      func(t *testing.T) stream.Store[E]
}

const conformScale = 9

// storeRows builds every deployment over payload V: a lone engine and a
// loopback remote cluster.
func storeRows[V Payload]() []storeRow[aspen.EdgeOf[V]] {
	return []storeRow[aspen.EdgeOf[V]]{
		{"engine", 1, true, func(*testing.T) stream.Store[aspen.EdgeOf[V]] {
			return stream.NewGraphEngine(aspen.NewGraphOf[V](testParams()), stream.Options{}).Store()
		}},
		{"remote2", 2, false, func(t *testing.T) stream.Store[aspen.EdgeOf[V]] {
			part := shard.NewRangePartitioner(2, 1<<conformScale)
			c, err := DialGraphOf[V](part, startMemServers[V](t, part), nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return c.Store()
		}},
	}
}

// conform drives one row: a preload through the store's own ingest path,
// then the seeded insert/delete schedule with two readers through
// stream.Workload, then the checks every deployment must pass.
func conform[E any](t *testing.T, row storeRow[E], mk func(lo, hi uint64) []E, ends func(E) (u, v uint32, w float32)) {
	st := row.open(t)
	model := adjacency{}
	apply := func(del bool, edges []E) {
		for _, e := range edges {
			u, v, w := ends(e)
			model.apply(del, u, v, w)
		}
	}

	// The preload must not show in the run's counters.
	pre := mk(0, 400)
	if err := st.Submit(false, pre); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	apply(false, pre)

	// Record what the writer actually submitted: the batch count depends
	// on timing, the contents only on the seed.
	var submitted uint64
	batches := 0
	next := stream.UpdateScheduleMix(400, 100, 3, mk)
	w := stream.Workload[E]{
		Store: st,
		NextBatch: func(i uint64) (bool, []E) {
			del, edges := next(i)
			apply(del, edges)
			submitted += uint64(len(edges))
			batches++
			return del, edges
		},
		Readers: 2,
		Kernels: []stream.Kernel{
			{Name: "bfs", Run: func(g ligra.Graph) { algos.BFS(g, 0, false) }},
			{Name: "cc", Run: func(g ligra.Graph) { algos.ConnectedComponents(g) }},
		},
		Duration: 120 * time.Millisecond,
		Interval: 2 * time.Millisecond,
		UseFlat:  true,
	}
	rep := w.Run()

	if rep.SubmitErr != "" || rep.QueryErrs != 0 {
		t.Fatalf("submit error %q, %d query errors", rep.SubmitErr, rep.QueryErrs)
	}
	if batches < 8 || rep.Queries == 0 || rep.Query.Count != rep.Queries || len(rep.PerKernel) != 2 {
		t.Fatalf("workload idle: %d batches, %d queries, per-kernel %v", batches, rep.Queries, rep.PerKernel)
	}
	if rep.Shards != row.shards || len(rep.FinalStamps) != row.shards || len(rep.PerShard) != row.shards {
		t.Fatalf("shards %d, %d final stamps, %d per-shard stats; want %d", rep.Shards, len(rep.FinalStamps), len(rep.PerShard), row.shards)
	}
	// Counters are run deltas: exactly what the writer submitted, the
	// preload excluded.
	if rep.Updates != submitted || rep.Batches < uint64(batches) || rep.Commits == 0 || rep.Commit.Count == 0 {
		t.Fatalf("updates %d (submitted %d), batches %d (submitted %d), commits %d", rep.Updates, submitted, rep.Batches, batches, rep.Commits)
	}
	if row.shards == 1 && rep.Batches != uint64(batches) {
		t.Fatalf("batches %d, submitted %d", rep.Batches, batches)
	}
	if row.inProcess && rep.LiveVersions != int64(row.shards) {
		t.Fatalf("LiveVersions = %d after drain, want %d", rep.LiveVersions, row.shards)
	}

	snap, err := st.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Stamps(), rep.FinalStamps) {
		t.Fatalf("pinned %v after the run flushed at %v", snap.Stamps(), rep.FinalStamps)
	}
	flat, err := snap.Flat()
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, "flat view", flat)
	if tree := snap.Tree(); row.inProcess {
		model.check(t, "tree view", tree)
	} else if tree != nil {
		t.Fatal("remote snapshot claims a tree view")
	}
	snap.Close()

	// A closed store must not yield a normal-looking report.
	st.Close()
	w.Duration = 10 * time.Millisecond
	w.Readers = 0
	if rep := w.Run(); rep.SubmitErr == "" {
		t.Fatal("run against a closed store reported no submit error")
	}
}

// TestStoreConformance runs one schedule through every deployment shape
// behind stream.Store and holds each to the same contract.
func TestStoreConformance(t *testing.T) {
	gen := rmat.NewGenerator(conformScale, 23)
	for _, row := range storeRows[struct{}]() {
		t.Run("graph/"+row.name, func(t *testing.T) {
			conform(t, row,
				func(lo, hi uint64) []aspen.Edge { return aspen.MakeUndirected(gen.Edges(lo, hi)) },
				func(e aspen.Edge) (uint32, uint32, float32) { return e.Src, e.Dst, 0 })
		})
	}
	for _, row := range storeRows[float32]() {
		t.Run("weighted/"+row.name, func(t *testing.T) {
			conform(t, row,
				func(lo, hi uint64) []aspen.WeightedEdge {
					es := aspen.MakeUndirected(gen.Edges(lo, hi))
					out := make([]aspen.WeightedEdge, len(es))
					for i, e := range es {
						// Symmetric, so both directions of an edge agree.
						out[i] = aspen.WeightedEdge{Src: e.Src, Dst: e.Dst, Val: float32(1 + (e.Src^e.Dst)%7)}
					}
					return out
				},
				func(e aspen.WeightedEdge) (uint32, uint32, float32) { return e.Src, e.Dst, e.Val })
		})
	}
}

// TestFlushCountsEveryAck holds every deployment to stream.Store.Flush's
// contract: once Flush returns, every earlier Submit is counted in Stats.
// Two Ps, one of them taken by a spinning goroutine, make a flush reply
// that overtakes a submit ack likely.
func TestFlushCountsEveryAck(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	gen := rmat.NewGenerator(conformScale, 5)
	for _, row := range storeRows[struct{}]() {
		t.Run(row.name, func(t *testing.T) {
			st := row.open(t)
			defer st.Close()
			var submitted uint64
			for i := uint64(0); i < 200; i++ {
				edges := aspen.MakeUndirected(gen.Edges(20*i, 20*i+20))
				if err := st.Submit(false, edges); err != nil {
					t.Fatal(err)
				}
				submitted += uint64(len(edges))
				if _, err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := st.Stats().Edges; got != submitted {
					t.Fatalf("iteration %d: Stats().Edges = %d after Flush, %d submitted", i, got, submitted)
				}
			}
		})
	}
}

// TestStatsReportsAnUnreachableShard: with one of two shard servers gone,
// Stats names the failure and still totals the shard it can read, instead
// of zero counters that would pass for an idle deployment.
func TestStatsReportsAnUnreachableShard(t *testing.T) {
	part := shard.NewRangePartitioner(2, 1<<conformScale)
	servers, addrs := startServers(t, part, false)
	c, err := DialGraph(part, addrs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Store()
	defer st.Close()
	if err := st.Submit(false, aspen.MakeUndirected(rmat.NewGenerator(conformScale, 7).Edges(0, 400))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if before.Err != "" || before.PerShard[0].Commits == 0 || before.PerShard[1].Commits == 0 {
		t.Fatalf("both shards up: err %q, commits %d and %d", before.Err, before.PerShard[0].Commits, before.PerShard[1].Commits)
	}
	servers[1].srv.Close()
	got := st.Stats()
	if !strings.Contains(got.Err, "shard 1") {
		t.Fatalf("shard 1 down: Stats().Err = %q, want it named", got.Err)
	}
	if got.PerShard[0].Commits != before.PerShard[0].Commits || got.Commits != before.PerShard[0].Commits {
		t.Fatalf("shard 1 down: shard 0 commits %d (total %d), want %d", got.PerShard[0].Commits, got.Commits, before.PerShard[0].Commits)
	}
}
