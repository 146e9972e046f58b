package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scratch"
)

// mkData builds a deterministic payload for record i: count edges of
// width bytes each.
func mkData(i int, count int, width int) []byte {
	data := make([]byte, count*width)
	for j := range data {
		data[j] = byte(i + j*7)
	}
	return data
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		kind := Insert
		if i%3 == 2 {
			kind = Delete
		}
		seq, err := l.Append(kind, 8, uint32(4+i%3), mkData(i, 4+i%3, 8))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq %d, want %d", i, seq, want)
		}
	}
}

// verifyReplay replays dir from `after` and checks the records match the
// deterministic stream [after, total).
func verifyReplay(t *testing.T, dir string, after uint64, total int) {
	t.Helper()
	i := int(after)
	last, err := Replay(dir, after, func(r Record) error {
		wantKind := Insert
		if i%3 == 2 {
			wantKind = Delete
		}
		if r.Seq != uint64(i+1) || r.Kind != wantKind || r.Width != 8 || int(r.Count) != 4+i%3 {
			return fmt.Errorf("record %d: got seq=%d kind=%d count=%d", i, r.Seq, r.Kind, r.Count)
		}
		if !bytes.Equal(r.Data, mkData(i, 4+i%3, 8)) {
			return fmt.Errorf("record %d: payload mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if i != total {
		t.Fatalf("replayed up to %d, want %d", i, total)
	}
	if last != uint64(total) {
		t.Fatalf("last seq %d, want %d", last, total)
	}
}

func TestRoundTripAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation: got %d segments", len(segs))
	}
	verifyReplay(t, dir, 0, 100)
	verifyReplay(t, dir, 42, 100) // checkpoint skip path
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last, err := Replay(dir, 0, nil)
	if err != nil || last != 10 {
		t.Fatalf("replay: last=%d err=%v", last, err)
	}
	l2, err := Open(dir, last+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 10, 10)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyReplay(t, dir, 0, 20)
}

func TestTornTailTolerated(t *testing.T) {
	for _, cut := range []int64{1, 3, 7, 11} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 20)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := listSegments(dir)
			seg := segs[len(segs)-1].path
			fi, _ := os.Stat(seg)
			if err := os.Truncate(seg, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}
			// The final record is torn: replay yields exactly 19 records.
			verifyReplay(t, dir, 0, 19)
			// Open repairs the tail and appending resumes cleanly.
			l2, err := Open(dir, 20, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Record 19 was lost to the torn write; the stream continues
			// with a fresh record 20 (recovery re-derives what to append).
			appendN(t, l2, 19, 5)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			verifyReplay(t, dir, 0, 24)
		})
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of a non-final segment.
	victim := segs[1].path
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay on mid-log corruption: err=%v, want ErrCorrupt", err)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	segs, _ := listSegments(dir)
	if len(segs) < 4 {
		t.Fatalf("need ≥4 segments, got %d", len(segs))
	}
	// Checkpoint at the start of the third segment: the first two hold
	// only records at or below it and must go; everything after stays.
	ckpt := segs[2].first - 1
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(ckpt); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) != len(segs)-2 {
		t.Fatalf("got %d segments after truncate, want %d", len(after), len(segs)-2)
	}
	// Replay from the checkpoint still yields the full surviving suffix.
	verifyReplay(t, dir, ckpt, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncating at the head of the active segment never deletes it.
	l2, err := Open(dir, 101, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	final, _ := listSegments(dir)
	if len(final) != 1 {
		t.Fatalf("got %d segments, want only the active one", len(final))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPoints drives the log through every kill point and asserts the
// recovery invariant: replay yields exactly the records whose Append
// returned success (plus, at points past the write, possibly the one in
// flight), and never a record that was refused.
func TestCrashPoints(t *testing.T) {
	points := []string{"append", "append.partial", "append.flush", "sync"}
	for _, point := range points {
		for arm := 1; arm <= 3; arm++ {
			t.Run(fmt.Sprintf("%s/%d", point, arm), func(t *testing.T) {
				dir := t.TempDir()
				hits := 0
				fp := func(op string) error {
					if op == point {
						hits++
						if hits == arm {
							return ErrCrash
						}
					}
					return nil
				}
				l, err := Open(dir, 1, Options{SegmentBytes: 4096, Fail: fp})
				if err != nil {
					t.Fatal(err)
				}
				acked := 0
				crashed := false
				for i := 0; i < 50; i++ {
					if _, err := l.Append(Insert, 8, 4, mkData(i, 4, 8)); err != nil {
						if !errors.Is(err, ErrCrash) {
							t.Fatalf("append: %v", err)
						}
						crashed = true
						break
					}
					if err := l.Sync(); err != nil {
						if !errors.Is(err, ErrCrash) {
							t.Fatalf("sync: %v", err)
						}
						crashed = true
						break
					}
					acked++
				}
				if !crashed {
					t.Fatalf("failpoint %s never fired", point)
				}
				l.Abort()

				n := 0
				last, err := Replay(dir, 0, func(r Record) error { n++; return nil })
				if err != nil {
					t.Fatalf("replay after crash: %v", err)
				}
				// Every synced (acked) record must survive; at most the
				// record in flight at the crash may additionally survive.
				if n < acked || n > acked+1 {
					t.Fatalf("point %s: replayed %d records, acked %d", point, n, acked)
				}
				if last != uint64(n) {
					t.Fatalf("last=%d n=%d", last, n)
				}

				// The log must reopen and serve appends after the crash.
				l2, err := Open(dir, last+1, Options{})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if _, err := l2.Append(Insert, 8, 4, mkData(99, 4, 8)); err != nil {
					t.Fatal(err)
				}
				if err := l2.Close(); err != nil {
					t.Fatal(err)
				}
				m := 0
				if _, err := Replay(dir, 0, func(Record) error { m++; return nil }); err != nil {
					t.Fatal(err)
				}
				if m != n+1 {
					t.Fatalf("after reopen: %d records, want %d", m, n+1)
				}
			})
		}
	}
}

// TestCrashDuringTruncate kills the log between segment deletions and
// checks that replay from the checkpoint seq still works — truncation is
// pure garbage collection, so dying inside it can never lose state.
func TestCrashDuringTruncate(t *testing.T) {
	dir := t.TempDir()
	armed := false
	fp := func(op string) error {
		if armed && op == "truncate" {
			return ErrCrash
		}
		return nil
	}
	l, err := Open(dir, 1, Options{SegmentBytes: 512, Fail: fp})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 100)
	segs, _ := listSegments(dir)
	if len(segs) < 4 {
		t.Fatalf("need ≥4 segments, got %d", len(segs))
	}
	ckpt := segs[2].first - 1
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := l.TruncateBefore(ckpt); !errors.Is(err, ErrCrash) {
		t.Fatalf("truncate: err=%v, want ErrCrash", err)
	}
	l.Abort()
	verifyReplay(t, dir, ckpt, 100)
}

func TestEmptyAndHeaderOnlyLogs(t *testing.T) {
	// Replaying a directory that does not exist is an empty log.
	last, err := Replay(filepath.Join(t.TempDir(), "nope"), 0, nil)
	if err != nil || last != 0 {
		t.Fatalf("missing dir: last=%d err=%v", last, err)
	}
	// A log whose only segment is header-only yields nothing.
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last, err = Replay(dir, 0, func(Record) error { return errors.New("unexpected record") })
	if err != nil || last != 0 {
		t.Fatalf("header-only: last=%d err=%v", last, err)
	}
	// Reopening at the same seq truncates the stale empty segment safely.
	l2, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 0, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyReplay(t, dir, 0, 3)
}

func TestHeaderDamageLastSegmentRepaired(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate dying while creating a new segment: header half-written.
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	if err := os.WriteFile(filepath.Join(dir, segName(6)), hdr[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	verifyReplay(t, dir, 0, 5)
	l2, err := Open(dir, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 5, 5)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyReplay(t, dir, 0, 10)
}

// walAppendOp is the op of BenchmarkWALAppend and its allocation gate,
// the durable commit hot path: framing + buffered write of one 5000-edge
// batch record must not allocate (the frame scratch is kept between
// appends: 40 KB is far under scratch.Keep).
func walAppendOp(tb testing.TB) func() {
	l, err := Open(tb.TempDir(), 1, Options{SegmentBytes: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	data := mkData(0, 5000, 8)
	return func() {
		if _, err := l.Append(Insert, 8, 5000, data); err != nil {
			tb.Fatal(err)
		}
	}
}

// walAppendLargeOp is the op of BenchmarkWALAppendLarge and its allocation
// gate: the one-shot cost of a record above scratch.Keep (the shape of a
// preload). Its frame is allocated for the append and released once
// written, so allocs/op is that one buffer (plus one runtime object per GC
// cycle: on a heap this small every 8 MiB allocation starts a cycle).
func walAppendLargeOp(tb testing.TB) func() {
	l, err := Open(tb.TempDir(), 1, Options{SegmentBytes: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	data := mkData(0, 1<<20, 8)
	return func() {
		if _, err := l.Append(Insert, 8, 1<<20, data); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	op := walAppendOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkWALAppendLarge(b *testing.B) {
	op := walAppendLargeOp(b)
	b.ReportAllocs()
	b.SetBytes(8 << 20)
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
		op     func(testing.TB) func()
		runs   int
		allocs float64
	}{
		{"BenchmarkWALAppend", walAppendOp, 100, 0},
		{"BenchmarkWALAppendLarge", walAppendLargeOp, 4, 2},
	} {
		if n := testing.AllocsPerRun(g.runs, g.op(t)); n > g.allocs*1.15 {
			t.Errorf("%s: %.0f allocs/op, gate %.0f × 1.15", g.name, n, g.allocs)
		}
	}
}

// TestFrameRetentionBound is the log's row of the scratch-retention sweep:
// an 8 MiB record leaves at most scratch.Keep behind once it is written,
// the payload handed back still reads what was filled in, and the
// steady-state records after it (256 KB, the largest a coalesced commit
// writes on the ledger) reuse one frame that never grows again.
func TestFrameRetentionBound(t *testing.T) {
	l, err := Open(t.TempDir(), 1, Options{SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abort() // nothing here reads the files back; skip the fsync
	big := mkData(1, 1<<20, 8)
	seq, payload, err := l.AppendFill(Insert, 8, 1<<20, len(big), func(p []byte) { copy(p, big) })
	if err != nil || seq != 1 {
		t.Fatalf("AppendFill = %d, %v", seq, err)
	}
	if !bytes.Equal(payload, big) {
		t.Fatal("returned payload differs from what fill wrote")
	}
	if c := cap(l.frame); c > scratch.Keep {
		t.Fatalf("frame keeps %d bytes after an 8 MiB record, bound %d", c, scratch.Keep)
	}
	small := mkData(2, 32<<10, 8)
	appendSmall := func() {
		if _, err := l.Append(Delete, 8, 32<<10, small); err != nil {
			t.Fatal(err)
		}
	}
	appendSmall()
	kept := cap(l.frame)
	if kept < len(small) || kept > scratch.Keep {
		t.Fatalf("frame cap %d after a 256 KB record, want within [%d, %d]", kept, len(small), scratch.Keep)
	}
	// A hundred records, not a thousand: each is 256 KB of real file
	// writes beside the other packages' fsync-timed tests.
	if allocs := testing.AllocsPerRun(99, appendSmall); allocs != 0 {
		t.Fatalf("a 256 KB append after the large one allocates %.0f objects, want 0", allocs)
	}
	if cap(l.frame) != kept {
		t.Fatalf("frame re-grew from %d to %d over steady-state appends", kept, cap(l.frame))
	}
}
