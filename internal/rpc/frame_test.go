package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/scratch"
)

func encodeFrame(t *testing.T, e *Encoder, v Verb, flags uint8, id uint64, body []byte) []byte {
	t.Helper()
	e.Begin(v, flags, id)
	e.Bytes(body)
	f, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	out := make([]byte, len(f))
	copy(out, f)
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var e Encoder
	var stream bytes.Buffer
	type msg struct {
		v     Verb
		flags uint8
		id    uint64
		body  []byte
	}
	msgs := []msg{
		{VerbHello, 0, 1, []byte{1, 2, 3}},
		{VerbSubmit, FlagDel, 2, bytes.Repeat([]byte{0xAB}, 1<<16)},
		{VerbFlush, FlagResp, 3, nil},
		{VerbRead, FlagResp | FlagErr | FlagLagging, 1 << 60, []byte("replica behind")},
	}
	for _, m := range msgs {
		stream.Write(encodeFrame(t, &e, m.v, m.flags, m.id, m.body))
	}
	r := NewReader(&stream)
	for i, m := range msgs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Verb != m.v || got.Flags != m.flags || got.ReqID != m.id || !bytes.Equal(got.Body, m.body) {
			t.Fatalf("msg %d: got %+v want %+v", i, got, m)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("at end: want io.EOF, got %v", err)
	}
}

func TestFrameEncoderPrimitives(t *testing.T) {
	var e Encoder
	e.Begin(VerbPin, FlagResp, 7)
	e.U8(0xFE)
	e.U32(0xDEADBEEF)
	e.U64(1 << 50)
	e.F32(3.5)
	copy(e.Reserve(4), []byte{9, 8, 7, 6})
	e.String("tail")
	f, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewReader(bytes.NewReader(f)).Next()
	if err != nil {
		t.Fatal(err)
	}
	d := NewBody(m.Body)
	if got := d.U8(); got != 0xFE {
		t.Fatalf("U8 = %x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := d.U64(); got != 1<<50 {
		t.Fatalf("U64 = %x", got)
	}
	if got := d.F32(); got != 3.5 {
		t.Fatalf("F32 = %v", got)
	}
	if got := d.Bytes(4); !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := string(d.Rest()); got != "tail" {
		t.Fatalf("Rest = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	// Overrun is sticky and reported once.
	d.U64()
	if err := d.Err(); !errors.Is(err, ErrBody) {
		t.Fatalf("overrun Err = %v", err)
	}
}

func TestFrameTruncationRefused(t *testing.T) {
	var e Encoder
	f := encodeFrame(t, &e, VerbSubmit, 0, 42, bytes.Repeat([]byte{7}, 100))
	for cut := 1; cut < len(f); cut++ {
		_, err := NewReader(bytes.NewReader(f[:cut])).Next()
		if err == nil {
			t.Fatalf("cut=%d: truncated frame accepted", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: truncation reported as clean EOF", cut)
		}
	}
}

func TestFrameCorruptionRefused(t *testing.T) {
	var e Encoder
	f := encodeFrame(t, &e, VerbRead, FlagResp, 9, bytes.Repeat([]byte{3}, 64))
	for i := 0; i < len(f); i++ {
		mut := make([]byte, len(f))
		copy(mut, f)
		mut[i] ^= 0x40
		// CRC32 detects all single-bit errors, and a flipped length
		// field either truncates (CRC mismatch) or overruns (EOF).
		if _, err := NewReader(bytes.NewReader(mut)).Next(); err == nil {
			t.Fatalf("byte %d: corrupted frame accepted", i)
		}
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Absurd length field must be refused before allocating.
	var head [frameHead]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(MaxFrame))
	_, err := NewReader(bytes.NewReader(head[:])).Next()
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("oversize length: %v", err)
	}
	// Below the message head is also invalid.
	binary.LittleEndian.PutUint32(head[0:], msgHead-1)
	_, err = NewReader(bytes.NewReader(head[:])).Next()
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("undersize length: %v", err)
	}
}

func TestFinishRejectsOversizeFrame(t *testing.T) {
	var e Encoder
	e.Begin(VerbSubmit, 0, 1)
	e.Reserve(MaxFrame)
	if _, err := e.Finish(); err == nil {
		t.Fatal("oversize frame encoded")
	}
}

// TestHeaderCannotSizeTheAllocation: eight header bytes may claim a
// MaxFrame body, but the reader allocates as the body arrives, so a peer
// that then sends nothing costs one scratch.Keep step, not 64 MiB.
func TestHeaderCannotSizeTheAllocation(t *testing.T) {
	var lie [frameHead + 100]byte
	binary.LittleEndian.PutUint32(lie[0:], MaxFrame-frameHead)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(lie[:]))
	_, err := r.Next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated 64 MiB frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 108-byte stream made the reader allocate %d bytes, want < 2 MiB", got)
	}
	// The same reader releases even that on its next call.
	r.Next()
	if cap(r.buf) > scratch.Keep {
		t.Fatalf("reader keeps %d bytes between frames, bound %d", cap(r.buf), scratch.Keep)
	}
}

// TestScratchRetentionBound is the codec's row of the scratch-retention
// sweep: an 8 MiB frame leaves at most scratch.Keep behind in the Encoder
// once written and in the Reader once the next Next is entered, and the
// steady-state frames after it (256 KB) reuse one buffer each that never
// grows again and allocate nothing.
func TestScratchRetentionBound(t *testing.T) {
	var e Encoder
	var wire bytes.Buffer
	body := bytes.Repeat([]byte{0xA5}, 8<<20)
	e.Begin(VerbRead, FlagResp, 1)
	copy(e.Reserve(len(body)), body)
	if _, err := e.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	if cap(e.buf) > scratch.Keep {
		t.Fatalf("encoder keeps %d bytes after writing an 8 MiB frame, bound %d", cap(e.buf), scratch.Keep)
	}
	small := bytes.Repeat([]byte{0x5A}, 256<<10)
	encodeSmall := func() {
		e.Begin(VerbSubmit, 0, 2)
		copy(e.Reserve(len(small)), small)
		if _, err := e.WriteTo(&wire); err != nil {
			t.Fatal(err)
		}
	}
	encodeSmall()
	frames := bytes.NewReader(wire.Bytes())
	r := NewReader(frames)
	m, err := r.Next()
	if err != nil || !bytes.Equal(m.Body, body) {
		t.Fatalf("8 MiB frame did not round-trip: %v", err)
	}
	if m, err = r.Next(); err != nil || !bytes.Equal(m.Body, small) {
		t.Fatalf("256 KB frame did not round-trip: %v", err)
	}
	encKept, readKept := cap(e.buf), cap(r.buf)
	if encKept > scratch.Keep || readKept > scratch.Keep {
		t.Fatalf("after the large frame: encoder keeps %d, reader %d, bound %d", encKept, readKept, scratch.Keep)
	}
	smallFrame := wire.Bytes()[wire.Len()-(frameHead+msgHead+len(small)):]
	steady := func() {
		wire.Reset()
		encodeSmall()
		frames.Reset(smallFrame)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, steady); allocs != 0 {
		t.Fatalf("a 256 KB frame after the large one allocates %.0f objects, want 0", allocs)
	}
	if cap(e.buf) != encKept || cap(r.buf) != readKept {
		t.Fatalf("buffers re-grew over steady-state frames: encoder %d -> %d, reader %d -> %d", encKept, cap(e.buf), readKept, cap(r.buf))
	}
}

// frameEncodeOp is the op of BenchmarkFrameEncode and its allocation gate:
// a 1 000-edge submit frame built in the encoder's reused buffer.
func frameEncodeOp(tb testing.TB) func() {
	var e Encoder
	edges := make([]byte, 1000*8)
	for i := range edges {
		edges[i] = byte(i)
	}
	var seq uint64
	return func() {
		seq++
		e.Begin(VerbSubmit, FlagDel, seq)
		e.U8(8)
		e.U8(0)
		e.U8(0)
		e.U8(0)
		e.U32(1000)
		copy(e.Reserve(len(edges)), edges)
		if _, err := e.Finish(); err != nil {
			tb.Fatal(err)
		}
	}
}

// frameDecodeOp is the op of BenchmarkFrameDecode and its allocation gate:
// an 8 KB frame read through the reader's reused buffer.
func frameDecodeOp(tb testing.TB) func() {
	var e Encoder
	e.Begin(VerbSubmit, 0, 1)
	copy(e.Reserve(8000), bytes.Repeat([]byte{5}, 8000))
	f, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	frame := make([]byte, len(f))
	copy(frame, f)
	br := bytes.NewReader(frame)
	r := NewReader(br)
	return func() {
		br.Reset(frame)
		if _, err := r.Next(); err != nil {
			tb.Fatal(err)
		}
	}
}

// The Large pair pins what a frame above scratch.Keep costs (the shape of a
// whole-range fallback chunk): its buffer is allocated for the message and
// released once written or handled. On the decode side the buffer grows as
// the body arrives, Keep, 2·Keep, then the full length.

func frameEncodeLargeOp(tb testing.TB) func() {
	var e Encoder
	body := bytes.Repeat([]byte{7}, 4<<20)
	var seq uint64
	return func() {
		seq++
		e.Begin(VerbRead, FlagResp, seq)
		copy(e.Reserve(len(body)), body)
		if _, err := e.WriteTo(io.Discard); err != nil {
			tb.Fatal(err)
		}
	}
}

func frameDecodeLargeOp(tb testing.TB) func() {
	var e Encoder
	e.Begin(VerbRead, FlagResp, 1)
	e.Reserve(4 << 20)
	f, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	br := bytes.NewReader(f)
	r := NewReader(br)
	return func() {
		br.Reset(f)
		if _, err := r.Next(); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchOp(b *testing.B, op func(testing.TB) func(), frameBytes int) {
	run := op(b)
	b.ReportAllocs()
	b.SetBytes(int64(frameBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	benchOp(b, frameEncodeOp, frameHead+msgHead+8+1000*8)
}

func BenchmarkFrameDecode(b *testing.B) {
	benchOp(b, frameDecodeOp, frameHead+msgHead+8000)
}

func BenchmarkFrameEncodeLarge(b *testing.B) {
	benchOp(b, frameEncodeLargeOp, frameHead+msgHead+4<<20)
}

func BenchmarkFrameDecodeLarge(b *testing.B) {
	benchOp(b, frameDecodeLargeOp, frameHead+msgHead+4<<20)
}

// TestAllocGates holds each gated benchmark's op at no more than its
// pinned allocs/op × 1.15 (a pinned 0 stays 0). Re-pinning a gate edits
// its number here with a BENCHMARKS.md line saying why.
func TestAllocGates(t *testing.T) {
	for _, g := range []struct {
		name   string
		op     func(testing.TB) func()
		allocs float64
	}{
		{"BenchmarkFrameEncode", frameEncodeOp, 0},
		{"BenchmarkFrameDecode", frameDecodeOp, 0},
		{"BenchmarkFrameEncodeLarge", frameEncodeLargeOp, 2},
		{"BenchmarkFrameDecodeLarge", frameDecodeLargeOp, 3},
	} {
		if n := testing.AllocsPerRun(20, g.op(t)); n > g.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", g.name, n, g.allocs)
		}
	}
}
