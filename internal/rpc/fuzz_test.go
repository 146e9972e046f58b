package rpc

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/scratch"
)

// FuzzFrameCodec mirrors the WAL corruption sweep at the RPC layer:
// any byte stream must either decode into frames that re-encode
// byte-identically, or be refused with an error — never panic, never
// silently yield a frame that differs from what a writer produced.
func FuzzFrameCodec(f *testing.F) {
	var e Encoder
	seed := func(v Verb, flags uint8, id uint64, body []byte) []byte {
		e.Begin(v, flags, id)
		e.Bytes(body)
		fr, err := e.Finish()
		if err != nil {
			f.Fatal(err)
		}
		out := make([]byte, len(fr))
		copy(out, fr)
		return out
	}
	f.Add(seed(VerbHello, 0, 1, []byte{1, 2, 3, 4}))
	f.Add(seed(VerbSubmit, FlagDel, 99, bytes.Repeat([]byte{0xCD}, 256)))
	two := append(seed(VerbPin, FlagResp, 5, nil), seed(VerbRead, FlagBySeq, 6, []byte("range"))...)
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A header claiming a MaxFrame body over a hundred bytes of stream.
	f.Add(append([]byte{0xF8, 0xFF, 0xFF, 0x03, 0, 0, 0, 0}, bytes.Repeat([]byte{1}, 100)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var re Encoder
		for {
			m, err := r.Next()
			// What the reader holds is bounded by what the stream
			// delivered, whatever its headers claim.
			if limit := 2*len(data) + scratch.Keep; cap(r.buf) > limit {
				t.Fatalf("reader holds %d bytes over a %d-byte stream, bound %d", cap(r.buf), len(data), limit)
			}
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				// Framing errors are fine; panics are not (the fuzz
				// engine catches those itself).
				return
			}
			// A decoded frame must survive a re-encode round trip.
			re.Begin(m.Verb, m.Flags, m.ReqID)
			re.Bytes(m.Body)
			fr, err := re.Finish()
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			rt, err := NewReader(bytes.NewReader(fr)).Next()
			if err != nil {
				t.Fatalf("round trip decode failed: %v", err)
			}
			if rt.Verb != m.Verb || rt.Flags != m.Flags || rt.ReqID != m.ReqID || !bytes.Equal(rt.Body, m.Body) {
				t.Fatalf("round trip mismatch: %+v vs %+v", rt, m)
			}
			// Body aliasing: copy before the next Next invalidates it.
			// (We compared above before advancing, so nothing to keep.)
		}
	})
}
