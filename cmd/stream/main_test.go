package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/aspen"
	"repro/internal/stream"
)

// TestMain doubles as the kill -9 victim: when STREAM_KILLTEST_DIR is set,
// the test binary runs the durable ingest loop from durable.go instead of
// the test suite, so TestKillRecover can SIGKILL a real separate process
// (real files, real page cache) without building cmd/stream first.
func TestMain(m *testing.M) {
	if dir := os.Getenv("STREAM_KILLTEST_DIR"); dir != "" {
		n, err := strconv.Atoi(os.Getenv("STREAM_KILLTEST_N"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad STREAM_KILLTEST_N:", err)
			os.Exit(1)
		}
		runKillTest(dir, n)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// killPrefixes[j] is the graph after killBatch batches 0..j-1.
func killPrefixes(n int) []aspen.Graph {
	out := []aspen.Graph{aspen.NewGraph(killParams())}
	g := out[0]
	for i := 0; i < n; i++ {
		del, edges := killBatch(i)
		if del {
			g = g.DeleteEdges(edges)
		} else {
			g = g.InsertEdges(edges)
		}
		out = append(out, g)
	}
	return out
}

// TestKillRecover is the end-to-end crash test: a subprocess ingests
// durable batches under fsync-per-commit, we SIGKILL it mid-stream after
// scanning its ack lines, and recovery must land on the acked prefix or at
// most one batch past it — an acknowledged commit survives a hard kill.
func TestKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const n = 200
	const killAfter = 25 // acks to observe before killing

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STREAM_KILLTEST_DIR="+dir,
		"STREAM_KILLTEST_N="+strconv.Itoa(n))
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	acked := -1
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "acked batch=") {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(line, "acked batch="))
		if err != nil {
			t.Fatalf("bad ack line %q: %v", line, err)
		}
		acked = k
		if acked+1 >= killAfter {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if acked < 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("subprocess produced no ack lines")
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	_ = cmd.Wait()

	g, lastSeq, err := stream.LoadGraph[struct{}](killParams(), dir)
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	// The scanner may lag the victim: an ack printed but not yet read still
	// counts, so re-derive the durable floor from the WAL itself — every
	// acked batch was fsynced before its ack line, hence lastSeq >= acked+1
	// (batch i is WAL sequence i+1).
	if lastSeq < uint64(acked+1) {
		t.Fatalf("WAL replayed to seq %d, below %d observed acks", lastSeq, acked+1)
	}
	if lastSeq > n {
		t.Fatalf("WAL replayed to seq %d, beyond the %d-batch stream", lastSeq, n)
	}
	prefixes := killPrefixes(int(lastSeq) + 1)
	if !g.Equal(prefixes[lastSeq]) {
		t.Fatalf("recovered graph (%d edges) does not match the %d-batch prefix (%d edges)",
			g.NumEdges(), lastSeq, prefixes[lastSeq].NumEdges())
	}

	// The directory keeps serving: reopen, ingest the rest of the stream,
	// close cleanly, and verify the full-stream graph.
	d := stream.Durability{Dir: dir, Policy: stream.SyncEveryCommit, CheckpointEvery: 5}
	e, err := stream.RecoverGraphEngine(killParams(), stream.Options{}, d)
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	for i := int(lastSeq); i < n; i++ {
		del, edges := killBatch(i)
		var p stream.Pending
		if del {
			p, err = e.Delete(edges)
		} else {
			p, err = e.Insert(edges)
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Wait() == 0 {
			t.Fatalf("batch %d nacked after recovery: %v", i, e.Err())
		}
	}
	e.Close()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	g2, seq2, err := stream.LoadGraph[struct{}](killParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != n {
		t.Fatalf("final WAL seq %d, want %d", seq2, n)
	}
	full := killPrefixes(n)
	if !g2.Equal(full[n]) {
		t.Fatal("post-recovery continuation diverged from the deterministic stream")
	}
}

// TestKillRecoverGraceful exercises the clean-exit half of the harness: the
// subprocess finishes all batches, closes (final checkpoint), and recovery
// reproduces the full stream.
func TestKillRecoverGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const n = 30
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STREAM_KILLTEST_DIR="+dir,
		"STREAM_KILLTEST_N="+strconv.Itoa(n))
	outb, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("subprocess: %v\n%s", err, outb)
	}
	if !strings.Contains(string(outb), "done") {
		t.Fatalf("subprocess did not finish cleanly:\n%s", outb)
	}
	g, seq, err := stream.LoadGraph[struct{}](killParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != n {
		t.Fatalf("recovered seq %d, want %d", seq, n)
	}
	if want := killPrefixes(n)[n]; !g.Equal(want) {
		t.Fatal("graceful recovery diverged from the deterministic stream")
	}
}
