package stream

import (
	"testing"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/rmat"
)

// BenchmarkDurableIngest measures sustained pipelined ingest (the
// BenchmarkEnginePipelined configuration) under each durability policy, to
// price the WAL against the PR-5 in-memory baseline. Checkpointing is
// disabled in the policy arms so the numbers isolate the append/fsync cost;
// the ckpt arm turns it back on to show the background-checkpoint overhead.
func BenchmarkDurableIngest(b *testing.B) {
	const size = 1_000
	arms := []struct {
		name string
		dur  *Durability
	}{
		{"nowal", nil},
		{"fsync=off", &Durability{Policy: SyncOff, CheckpointEvery: 1 << 30}},
		{"fsync=commit", &Durability{Policy: SyncEveryCommit, CheckpointEvery: 1 << 30}},
		{"fsync=commit/ckpt", &Durability{Policy: SyncEveryCommit, CheckpointEvery: 64}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			gen := rmat.NewGenerator(20, 99)
			seed := aspen.MakeUndirected(gen.Edges(0, 100_000))
			batch := gen.Edges(100_000, 100_000+size)
			opts := Options{QueueCap: 64}
			var e *Engine[aspen.Graph, aspen.Edge]
			if arm.dur == nil {
				e = NewGraphEngine(aspen.NewGraph(ctree.DefaultParams()), opts)
			} else {
				d := *arm.dur
				d.Dir = b.TempDir()
				var err error
				e, err = RecoverGraphEngine(ctree.DefaultParams(), opts, d)
				if err != nil {
					b.Fatal(err)
				}
			}
			defer e.Close()
			if _, err := e.Insert(seed); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Insert(batch); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := e.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}
