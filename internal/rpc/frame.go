// Package rpc implements the length-prefixed, checksummed message
// framing used by the distributed shard transport.
//
// The wire discipline mirrors the WAL's (internal/wal): every frame is
//
//	[len u32][crc u32][verb u8][flags u8][reserved u16][reqID u64][body ...]
//
// little-endian throughout. len counts everything after the crc field
// (the 12-byte message head plus the body) and crc is CRC32C
// (Castagnoli) over those same bytes, so a torn or bit-flipped frame is
// refused on decode exactly like a torn WAL record. Encoder and Reader
// each reuse one scratch buffer of at most scratch.Keep bytes, so the
// steady-state hot path performs zero allocations (CI-gated by
// BenchmarkFrameEncode/Decode); a larger frame's buffer is one-shot.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/scratch"
)

// Verb identifies the operation a frame carries.
type Verb uint8

const (
	// VerbHello is the connection handshake: the client announces the
	// protocol version and the shard identity it expects; the server
	// confirms or the connection dies.
	VerbHello Verb = 1
	// VerbSubmit carries one routed edge batch. The response is
	// deferred until the batch commits (and, under per-commit fsync,
	// is durable), so an ack implies the committed prefix contains it.
	VerbSubmit Verb = 2
	// VerbFlush drains the shard's ingest queue and returns the commit
	// stamp covering everything received before it on this connection.
	VerbFlush Verb = 3
	// VerbPin pins the shard's latest version and returns its stamp
	// plus the WAL sequence watermark used for replica reads.
	VerbPin Verb = 4
	// VerbRelease releases one pin taken by VerbPin.
	VerbRelease Verb = 5
	// VerbRead reads a pinned version (by stamp) or a replica state (by
	// WAL seq, with FlagBySeq). The request [ref u64][lo u32][base u64]
	// asks for the chunk starting at vertex lo of the edge diff from the
	// version base — one the client already holds, named the same way as
	// ref; 0 is the empty version — to ref. The response leads with a
	// status byte: the diff is from base, or, when the server cannot use
	// base ("no base", "too large"), from the empty version, in the same
	// response.
	VerbRead Verb = 6
	// VerbStats returns a JSON-encoded server stats snapshot.
	VerbStats Verb = 7
	// VerbTail subscribes the connection to the shard's commit log.
	// After an optional VerbTailSnap bootstrap, the server streams one
	// VerbTailRec per WAL record, in sequence order, forever.
	VerbTail Verb = 8
	// VerbTailRec is one shipped WAL record (server push).
	VerbTailRec Verb = 9
	// VerbTailSnap is a snapshot bootstrap for a tail subscriber whose
	// resume point predates the oldest retained WAL record.
	VerbTailSnap Verb = 10
	// VerbHealth is the liveness/role probe: the response carries the
	// endpoint's role (primary / replica / promoted replica), its latest
	// commit stamp and its WAL-seq watermark. Cheap enough to poll.
	VerbHealth Verb = 11

	// NumVerbs is one past the highest verb — sizes per-verb tables
	// (the server's dispatch-latency histograms).
	NumVerbs = 12
)

// verbNames maps verbs to the stable label spellings the metrics layer
// exports.
var verbNames = [NumVerbs]string{
	VerbHello: "hello", VerbSubmit: "submit", VerbFlush: "flush",
	VerbPin: "pin", VerbRelease: "release", VerbRead: "read",
	VerbStats: "stats", VerbTail: "tail", VerbTailRec: "tail_rec",
	VerbTailSnap: "tail_snap", VerbHealth: "health",
}

// String returns the verb's wire-stable lowercase name.
func (v Verb) String() string {
	if int(v) < len(verbNames) && verbNames[v] != "" {
		return verbNames[v]
	}
	return "unknown"
}

// Frame flag bits.
const (
	// FlagResp marks a response frame; its reqID echoes the request.
	FlagResp uint8 = 1 << 0
	// FlagErr marks an error response; the body is the message string.
	FlagErr uint8 = 1 << 1
	// FlagDel marks a VerbSubmit batch as deletes rather than inserts.
	FlagDel uint8 = 1 << 2
	// FlagBySeq marks a VerbRead that addresses replica state by WAL
	// sequence number instead of a pinned commit stamp.
	FlagBySeq uint8 = 1 << 3
	// FlagLagging marks an error response that means "replica behind
	// the requested sequence" — the client should fall back to the
	// primary rather than fail the read.
	FlagLagging uint8 = 1 << 4
	// FlagDeduped marks a VerbSubmit ack that was answered from the
	// server's per-client dedup window: the batch was already part of
	// the committed prefix (a retry after a lost ack) and was not
	// re-applied. The body carries a stamp at or above the original
	// commit's, exactly as binding as a first-attempt ack.
	FlagDeduped uint8 = 1 << 5
)

const (
	frameHead = 8  // len u32 | crc u32
	msgHead   = 12 // verb u8 | flags u8 | reserved u16 | reqID u64

	// MaxFrame bounds a single frame (head + body). Large enough for a
	// read chunk at bench scale, small enough that a
	// corrupt length field cannot drive an absurd allocation.
	MaxFrame = 1 << 26

	// ProtoVersion is bumped on any incompatible wire change.
	// v2: VerbSubmit bodies lead with a (clientID u64, clientSeq u64)
	// idempotency note; VerbHealth added.
	// v3: VerbRead requests may name a base and get a delta body back.
	// v4: every VerbRead names a base (0: the empty version) and every
	// response is a delta body; the whole-range body is gone.
	ProtoVersion = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame is wrapped by all framing-level decode failures (bad
// length, checksum mismatch, short message head).
var ErrFrame = errors.New("rpc: bad frame")

// Msg is one decoded frame. Body aliases the Reader's internal scratch
// and is valid only until the next call to Next.
type Msg struct {
	Verb  Verb
	Flags uint8
	ReqID uint64
	Body  []byte
}

// Encoder builds frames into a reused scratch buffer. It is not safe
// for concurrent use; callers serialize access (one Encoder per
// connection writer).
type Encoder struct {
	buf []byte
}

// Begin resets the encoder and writes the message head for a new
// frame. Body bytes are appended with the U*/F32/Bytes methods and the
// completed frame is obtained from Finish.
func (e *Encoder) Begin(v Verb, flags uint8, reqID uint64) {
	if cap(e.buf) < frameHead+msgHead {
		e.buf = make([]byte, 0, 512)
	}
	e.buf = e.buf[:frameHead+msgHead]
	// len and crc are filled in by Finish.
	e.buf[frameHead] = byte(v)
	e.buf[frameHead+1] = flags
	e.buf[frameHead+2] = 0
	e.buf[frameHead+3] = 0
	binary.LittleEndian.PutUint64(e.buf[frameHead+4:], reqID)
}

// U8 appends one byte to the body.
func (e *Encoder) U8(x uint8) { e.buf = append(e.buf, x) }

// U32 appends a little-endian uint32 to the body.
func (e *Encoder) U32(x uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, x)
}

// U64 appends a little-endian uint64 to the body.
func (e *Encoder) U64(x uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, x)
}

// F32 appends a little-endian IEEE-754 float32 to the body.
func (e *Encoder) F32(x float32) { e.U32(math.Float32bits(x)) }

// Bytes appends raw bytes to the body.
func (e *Encoder) Bytes(p []byte) { e.buf = append(e.buf, p...) }

// String appends the bytes of s to the body.
func (e *Encoder) String(s string) { e.buf = append(e.buf, s...) }

// Reserve extends the body by n bytes and returns the new region for
// the caller to fill in place (e.g. a codec encoding edges directly
// into the frame). The slice is only valid until the next append.
func (e *Encoder) Reserve(n int) []byte {
	off := len(e.buf)
	if cap(e.buf)-off < n {
		grown := make([]byte, off, scratch.Cap(off+n))
		copy(grown, e.buf)
		e.buf = grown
	}
	e.buf = e.buf[:off+n]
	return e.buf[off : off+n]
}

// Finish fills in the length and checksum and returns the completed
// frame. The slice aliases the encoder's scratch and is valid until
// the next Begin.
func (e *Encoder) Finish() ([]byte, error) {
	payload := len(e.buf) - frameHead
	if frameHead+payload > MaxFrame {
		return nil, fmt.Errorf("rpc: frame too large (%d bytes)", frameHead+payload)
	}
	binary.LittleEndian.PutUint32(e.buf[0:], uint32(payload))
	crc := crc32.Checksum(e.buf[frameHead:], castagnoli)
	binary.LittleEndian.PutUint32(e.buf[4:], crc)
	return e.buf, nil
}

// WriteTo finishes the frame and writes it to w with one Write call. A
// frame buffer above scratch.Keep is released on return, so w must have
// consumed (written or copied) the bytes by then, as a bufio.Writer has.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	f, err := e.Finish()
	n := 0
	if err == nil {
		n, err = w.Write(f)
	}
	e.buf = scratch.Trim(e.buf)
	return int64(n), err
}

// Reader decodes frames from an io.Reader into a reused scratch buffer.
// Not safe for concurrent use.
type Reader struct {
	r    io.Reader
	head [frameHead]byte
	buf  []byte
}

// NewReader returns a frame reader over r. Wrap network connections in
// a bufio.Reader first to avoid tiny reads.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next reads and verifies the next frame. A clean EOF at a frame
// boundary returns io.EOF; truncation mid-frame returns
// io.ErrUnexpectedEOF; a checksum or length violation returns an error
// wrapping ErrFrame. The returned Msg's Body aliases internal scratch.
func (r *Reader) Next() (Msg, error) {
	// The previous message has been handled: a buffer above scratch.Keep
	// goes now, before blocking on the next head, so an idle connection
	// never pins its last big message.
	r.buf = scratch.Trim(r.buf)
	if _, err := io.ReadFull(r.r, r.head[:]); err != nil {
		return Msg{}, err // io.EOF only at a frame boundary
	}
	plen := int(binary.LittleEndian.Uint32(r.head[0:]))
	want := binary.LittleEndian.Uint32(r.head[4:])
	if plen < msgHead || plen > MaxFrame-frameHead {
		return Msg{}, fmt.Errorf("%w: payload length %d", ErrFrame, plen)
	}
	// The body is read in steps of at most scratch.Keep and the buffer
	// doubles as bytes arrive (going straight to plen once that is within
	// a step): a header alone can claim MaxFrame, but can make this side
	// allocate only one step more than twice what the peer goes on to send.
	for len(r.buf) < plen {
		have := len(r.buf)
		step := min(plen-have, scratch.Keep)
		if cap(r.buf)-have < step {
			grow := step
			if have > 0 {
				grow = 2 * have
				if grow+scratch.Keep >= plen {
					grow = plen
				}
			}
			grown := make([]byte, have, grow)
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = r.buf[:have+step]
		if _, err := io.ReadFull(r.r, r.buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Msg{}, err
		}
	}
	if got := crc32.Checksum(r.buf, castagnoli); got != want {
		return Msg{}, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrFrame, got, want)
	}
	return Msg{
		Verb:  Verb(r.buf[0]),
		Flags: r.buf[1],
		ReqID: binary.LittleEndian.Uint64(r.buf[4:]),
		Body:  r.buf[msgHead:],
	}, nil
}
