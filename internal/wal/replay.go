package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Replay scans the log in sequence order, invoking fn for every valid
// record with Seq > after (records at or below `after` are covered by the
// checkpoint being recovered from; they are still checksum-verified while
// scanning past). It returns the last valid sequence number seen anywhere
// in the log — `after` when nothing newer survives.
//
// A torn or checksum-failed record in the FINAL segment is the write that
// was in flight when the process died: replay stops cleanly there. The
// same damage in an earlier segment cannot be explained by a crash (later
// segments only exist because appending continued) and returns ErrCorrupt.
// fn's Record.Data aliases an internal buffer valid only during the call.
func Replay(dir string, after uint64, fn func(Record) error) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return after, nil
		}
		return after, err
	}
	last := after
	for i, seg := range segs {
		final := i == len(segs)-1
		stop, _, segLast, err := replaySegment(seg, after, final, fn)
		if err != nil {
			return last, err
		}
		if segLast > last {
			last = segLast
		}
		if stop {
			break
		}
	}
	return last, nil
}

// replaySegment scans one segment. It returns stop=true when the segment
// ended at a torn tail (only legal in the final segment; callers stop
// replay there), and end, the byte offset just past its last valid frame
// (0 when even the header is damaged).
func replaySegment(seg segment, after uint64, final bool, fn func(Record) error) (stop bool, end int64, last uint64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return false, 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil ||
		binary.LittleEndian.Uint32(hdr[0:]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:]) != segVersion ||
		binary.LittleEndian.Uint32(hdr[16:]) != crc32.Checksum(hdr[:16], castagnoli) ||
		binary.LittleEndian.Uint64(hdr[8:]) != seg.first {
		if final {
			// A header that never finished landing: the process died
			// creating this segment, which therefore holds no records.
			return true, 0, 0, nil
		}
		return false, 0, 0, fmt.Errorf("%w: bad segment header in %s", ErrCorrupt, seg.path)
	}

	end = headerSize
	expect := seg.first
	var buf []byte
	torn := func() (bool, int64, uint64, error) {
		if final {
			return true, end, last, nil
		}
		return false, end, last, fmt.Errorf("%w: torn record before final segment in %s", ErrCorrupt, seg.path)
	}
	for {
		var fh [frameHead]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				return false, end, last, nil // clean segment end
			}
			return torn() // torn frame header
		}
		payload := binary.LittleEndian.Uint32(fh[0:])
		if payload < recHead || payload > maxPayload {
			return torn()
		}
		if cap(buf) < int(payload) {
			buf = make([]byte, payload)
		}
		buf = buf[:payload]
		if _, err := io.ReadFull(br, buf); err != nil {
			return torn()
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(fh[4:]) {
			return torn()
		}
		seq := binary.LittleEndian.Uint64(buf[0:])
		kind := Kind(buf[8])
		width := buf[9]
		count := binary.LittleEndian.Uint32(buf[12:])
		want := uint64(count)*uint64(width) + uint64(binary.LittleEndian.Uint16(buf[10:]))
		if seq != expect || want != uint64(payload-recHead) {
			// A checksum-valid record with the wrong sequence number or an
			// inconsistent length is not a torn write — it is corruption.
			return false, end, last, fmt.Errorf("%w: record seq %d (want %d) in %s", ErrCorrupt, seq, expect, seg.path)
		}
		expect++
		last = seq
		end += frameHead + int64(payload)
		if seq > after && fn != nil {
			if err := fn(Record{Seq: seq, Kind: kind, Width: width, Count: count, Data: buf[recHead:]}); err != nil {
				return false, end, last, err
			}
		}
	}
}

// repairTail truncates the last segment back to its last valid frame
// boundary, removing the torn record a crash may have left, so appending
// can resume into a directory whose every surviving byte is valid. A last
// segment whose header never fully landed is deleted outright.
func repairTail(dir string) error {
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	seg := segs[len(segs)-1]
	_, end, _, err := replaySegment(seg, math.MaxUint64, true, nil)
	if err != nil {
		return err
	}
	if end == 0 {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
		return syncDir(dir)
	}
	fi, err := os.Stat(seg.path)
	if err != nil {
		return err
	}
	if end < fi.Size() {
		if err := os.Truncate(seg.path, end); err != nil {
			return err
		}
		return syncDir(dir)
	}
	return nil
}
