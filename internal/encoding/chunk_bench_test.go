package encoding

import "testing"

func benchChunk(codec Codec, n int) Chunk {
	elems := make([]uint32, n)
	for i := range elems {
		// Strictly increasing with irregular gaps (the old 3*i + i%5
		// formula was non-monotonic, violating Encode's contract).
		elems[i] = uint32(4*i + i%3)
	}
	return Encode(codec, elems)
}

func BenchmarkEncodeDelta(b *testing.B) {
	elems := make([]uint32, 256)
	for i := range elems {
		elems[i] = uint32(3 * i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(Delta, elems)
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	c := benchChunk(Delta, 256)
	buf := make([]uint32, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Decode(Delta, buf[:0])
	}
}

func BenchmarkDecodeRaw(b *testing.B) {
	c := benchChunk(Raw, 256)
	buf := make([]uint32, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Decode(Raw, buf[:0])
	}
}

// chunkUnionOp is the op of BenchmarkChunkUnion and its allocation gate:
// the element-wise merge of two interleaved 256-element delta chunks.
func chunkUnionOp() func() {
	a := benchChunk(Delta, 256)
	elems := make([]uint32, 256)
	for i := range elems {
		elems[i] = uint32(4*i + 2) // interleaves with benchChunk's elements
	}
	c := Encode(Delta, elems)
	return func() { Union(Delta, a, c) }
}

// chunkUnionDisjointOp is the op of BenchmarkChunkUnionDisjoint and its
// allocation gate: two disjoint ranges, the byte-splice concatenation.
func chunkUnionDisjointOp() func() {
	a := benchChunk(Delta, 256)
	elems := make([]uint32, 256)
	for i := range elems {
		elems[i] = 100_000 + uint32(4*i)
	}
	c := Encode(Delta, elems)
	return func() { Union(Delta, a, c) }
}

func BenchmarkChunkUnion(b *testing.B) {
	op := chunkUnionOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkChunkUnionDisjoint(b *testing.B) {
	op := chunkUnionDisjointOp()
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
		{"BenchmarkChunkUnion", chunkUnionOp, 1},
		{"BenchmarkChunkUnionDisjoint", chunkUnionDisjointOp, 1},
	} {
		if n := testing.AllocsPerRun(100, g.op()); n > g.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", g.name, n, g.allocs)
		}
	}
}

func BenchmarkChunkDifference(b *testing.B) {
	a := benchChunk(Delta, 256)
	c := benchChunk(Delta, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Difference(Delta, a, c)
	}
}

func BenchmarkChunkIter(b *testing.B) {
	for _, codec := range codecs {
		b.Run(codec.String(), func(b *testing.B) {
			c := benchChunk(codec, 256)
			b.ReportAllocs()
			var sum uint32
			for i := 0; i < b.N; i++ {
				for it := NewIter(codec, c); it.Valid(); it.Next() {
					sum += it.Value()
				}
			}
			_ = sum
		})
	}
}
