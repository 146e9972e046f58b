package ctree

import (
	"slices"
	"testing"

	"repro/internal/xhash"
)

func benchElems(n int, seed uint64) []uint32 {
	r := xhash.NewRNG(seed)
	elems := make([]uint32, 0, n)
	seen := map[uint32]bool{}
	for len(elems) < n {
		v := r.Uint32() % uint32(8*n)
		if !seen[v] {
			seen[v] = true
			elems = append(elems, v)
		}
	}
	slices.Sort(elems)
	return elems
}

func BenchmarkBuild(b *testing.B) {
	elems := benchElems(50_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(DefaultParams(), elems)
	}
}

func BenchmarkFind(b *testing.B) {
	elems := benchElems(50_000, 2)
	t := Build(DefaultParams(), elems)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Contains(elems[i%len(elems)])
	}
}

// unionOp is the op of BenchmarkUnion and its allocation gate: the union
// of two 50 000-element trees.
func unionOp() func() {
	t1 := Build(DefaultParams(), benchElems(50_000, 3))
	t2 := Build(DefaultParams(), benchElems(50_000, 4))
	return func() { t1.Union(t2) }
}

// multiInsertSmallBatchOp is the op of BenchmarkMultiInsertSmallBatch and
// its allocation gate: a 1 000-element batch into a 100 000-element tree.
func multiInsertSmallBatchOp() func() {
	t := Build(DefaultParams(), benchElems(100_000, 5))
	batch := benchElems(1_000, 6)
	return func() { t.MultiInsert(batch) }
}

func BenchmarkUnion(b *testing.B) {
	op := unionOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkMultiInsertSmallBatch(b *testing.B) {
	op := multiInsertSmallBatchOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op × 1.15 (a pinned 0 stays 0). Re-pinning a gate edits
// its number here with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	for _, g := range []struct {
		name   string
		op     func() func()
		allocs float64
	}{
		{"BenchmarkUnion", unionOp, 2899},
		{"BenchmarkMultiInsertSmallBatch", multiInsertSmallBatchOp, 79},
	} {
		if n := testing.AllocsPerRun(20, g.op()); n > g.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", g.name, n, g.allocs)
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	t := Build(DefaultParams(), benchElems(100_000, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int
		t.ForEach(func(uint32) bool { count++; return true })
	}
}
