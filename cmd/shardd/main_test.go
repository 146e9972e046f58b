package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/aspen"
	"repro/internal/ctree"
	"repro/internal/shard"
	"repro/internal/shard/remote"
	"repro/internal/xhash"
)

// TestMain doubles as the shardd child process: with SHARDD_ARGS set,
// the test binary runs the daemon instead of the suite, so the
// multi-process tests below get real shardd processes (real sockets,
// real files, real SIGKILL) without building cmd/shardd first.
func TestMain(m *testing.M) {
	if args := os.Getenv("SHARDD_ARGS"); args != "" {
		if err := run(strings.Fields(args), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "shardd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFsyncPolicyRefusedBeforeListen: -fsync accepts per-commit and off;
// any other policy, the removed interval one included, ends run with an
// error naming the accepted ones before it binds -addr. The address is
// held here, so a run that listened first would fail with that instead.
func TestFsyncPolicyRefusedBeforeListen(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	var out strings.Builder
	err = run([]string{"-addr", held.Addr().String(), "-data", t.TempDir(), "-fsync", "interval"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"interval"`) ||
		!strings.Contains(err.Error(), "per-commit") || !strings.Contains(err.Error(), "off") {
		t.Fatalf("run -fsync interval = %v, want an error naming the accepted policies", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run printed %q before refusing its flags", out.String())
	}
}

// shardProc is one spawned shardd child.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	obs  string // the -obs-addr listener, when the child was given one
}

// startShard spawns a shardd child and scans its stdout for the
// "listening on" line to learn the bound address (and, with -obs-addr,
// for the "obs on" line).
func startShard(t *testing.T, args string) *shardProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SHARDD_ARGS="+args)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &shardProc{cmd: cmd}
	wantObs := strings.Contains(args, "-obs-addr")
	sc := bufio.NewScanner(out)
	for (p.addr == "" || wantObs && p.obs == "") && sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			p.addr = strings.TrimSpace(line[i+len("listening on "):])
		}
		if i := strings.Index(line, "obs on http://"); i >= 0 {
			p.obs = strings.Fields(line[i+len("obs on http://"):])[0]
		}
	}
	if p.addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("child never announced its address (args %q)", args)
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return p
}

// clusterBatch is the deterministic insert stream of the kill test:
// batch i is a seeded random undirected edge set over a small id space.
func clusterBatch(i int) []aspen.Edge {
	rng := xhash.NewRNG(uint64(9000 + i))
	pairs := make([]aspen.Edge, 25)
	for j := range pairs {
		pairs[j] = aspen.Edge{Src: rng.Uint32() % 512, Dst: rng.Uint32() % 512}
	}
	return aspen.MakeUndirected(pairs)
}

// TestClusterKillRecover is the distributed crash test: a 2-process
// cluster ingests acked batches under fsync-per-commit, one shard
// server is SIGKILLed mid-stream, restarted on the same directory and
// address, and every batch that was fully acked before the kill must be
// present in the recovered cluster view — an ack means committed and
// durable, cluster-wide.
func TestClusterKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	const shards = 2
	const span = 512
	dirs := [shards]string{t.TempDir(), t.TempDir()}
	procs := make([]*shardProc, shards)
	for s := 0; s < shards; s++ {
		procs[s] = startShard(t, fmt.Sprintf(
			"-shard %d -shards %d -addr 127.0.0.1:0 -data %s -fsync per-commit", s, shards, dirs[s]))
	}
	part := shard.NewRangePartitioner(shards, span)
	addrs := []string{procs[0].addr, procs[1].addr}
	// The submit right after the kill is expected to fail; a short retry
	// budget surfaces that in milliseconds instead of the default 2 minutes.
	c, err := remote.DialGraph(part, addrs, nil, remote.Options{
		DialWait:      10 * time.Second,
		RetryDeadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	acked := make(map[int]bool)
	submit := func(i int) bool {
		p, err := c.Insert(clusterBatch(i))
		if err != nil {
			return false
		}
		if err := p.Wait(); err != nil {
			return false
		}
		acked[i] = true
		return true
	}

	const beforeKill = 30
	for i := 0; i < beforeKill; i++ {
		if !submit(i) {
			t.Fatalf("batch %d failed before the kill", i)
		}
	}

	// SIGKILL shard 1: no shutdown path runs, no final checkpoint.
	if err := procs[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = procs[1].cmd.Wait()

	// Submissions touching the dead shard fail; acked ones stay acked.
	submit(beforeKill)

	// Restart on the same directory and address; the client's
	// connection redials transparently on next use.
	procs[1] = startShard(t, fmt.Sprintf(
		"-shard 1 -shards %d -addr %s -data %s -fsync per-commit", shards, addrs[1], dirs[1]))
	if procs[1].addr != addrs[1] {
		t.Fatalf("restart bound %s, want %s", procs[1].addr, addrs[1])
	}

	for i := beforeKill + 1; i < beforeKill+10; i++ {
		if !submit(i) {
			t.Fatalf("batch %d failed after the restart", i)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	g, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	// Every fully-acked batch's edges must be present (insert-only
	// stream: nothing ever removes them).
	for i := range acked {
		for _, e := range clusterBatch(i) {
			found := false
			g.ForEachNeighbor(e.Src, func(w uint32) bool {
				if w == e.Dst {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("acked batch %d: edge %d->%d missing after kill+recover", i, e.Src, e.Dst)
			}
		}
	}
}

// killBatch is the deterministic mixed insert/delete stream of the
// retried-submit kill test: every fourth batch deletes, so a batch
// applied twice (an insert replayed after a later delete) changes the
// final edge set and fails the differential check.
func killBatch(i int) (del bool, edges []aspen.Edge) {
	rng := xhash.NewRNG(uint64(7000 + i))
	edges = make([]aspen.Edge, 0, 40)
	for j := 0; j < 40; j++ {
		u, v := rng.Uint32()%512, rng.Uint32()%512
		if u != v {
			edges = append(edges, aspen.Edge{Src: u, Dst: v})
		}
	}
	return i%4 == 3, edges
}

// TestKillDuringRetriedSubmit SIGKILLs a durable shardd while a burst of
// pipelined submits is in flight, restarts it on the same directory and
// address, and requires every submit to succeed exactly once: the client
// retries across the crash, the recovered server replays its WAL
// idempotency notes, and retried batches that committed before the kill
// are acked as duplicates instead of re-applied. The mixed
// insert/delete stream makes any double-apply visible in the final
// graph, which must equal a reference applying each batch once.
func TestKillDuringRetriedSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	p := startShard(t, "-shard 0 -shards 1 -addr 127.0.0.1:0 -data "+dir+" -fsync per-commit")
	part := shard.NewRangePartitioner(1, 512)
	c, err := remote.DialGraph(part, []string{p.addr}, nil, remote.Options{
		DialWait:        15 * time.Second,
		RetryDeadline:   60 * time.Second,
		Backoff:         remote.Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond},
		BreakerCooldown: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const batches = 40
	submit := func(i int) *remote.Pending {
		del, edges := killBatch(i)
		var pend *remote.Pending
		var err error
		if del {
			pend, err = c.Delete(edges)
		} else {
			pend, err = c.Insert(edges)
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		return pend
	}

	// Pipeline the first 30 batches without waiting — with
	// fsync-per-commit the server falls behind immediately, so the kill
	// lands with most of them unacked (committed-but-unacked ones are
	// exactly the retries the dedup window must absorb).
	pendings := make([]*remote.Pending, 0, batches)
	for i := 0; i < 30; i++ {
		pendings = append(pendings, submit(i))
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.cmd.Wait()

	// Restart on the same directory and address; WAL replay re-observes
	// the idempotency notes before the listener comes back up.
	p2 := startShard(t, fmt.Sprintf(
		"-shard 0 -shards 1 -addr %s -data %s -fsync per-commit", p.addr, dir))
	if p2.addr != p.addr {
		t.Fatalf("restart bound %s, want %s", p2.addr, p.addr)
	}
	for i := 30; i < batches; i++ {
		pendings = append(pendings, submit(i))
	}
	for i, pend := range pendings {
		if err := pend.Wait(); err != nil {
			t.Fatalf("batch %d never committed across the kill: %v", i, err)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Retries == 0 {
		t.Fatal("no submit was retried — the kill missed the in-flight window")
	}
	t.Logf("retries=%d dedup_acks=%d breaker_opens=%d", st.Retries, st.DedupAcks, st.BreakerOpens)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	flat, err := tx.Flat()
	if err != nil {
		t.Fatal(err)
	}
	ref := aspen.NewGraph(ctree.DefaultParams())
	for i := 0; i < batches; i++ {
		if del, edges := killBatch(i); del {
			ref = ref.DeleteEdges(edges)
		} else {
			ref = ref.InsertEdges(edges)
		}
	}
	if flat.Order() != ref.Order() {
		t.Fatalf("Order = %d, want %d", flat.Order(), ref.Order())
	}
	if flat.NumEdges() != ref.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d (exactly-once violated)", flat.NumEdges(), ref.NumEdges())
	}
	for u := 0; u < ref.Order(); u++ {
		var want, got []uint32
		ref.ForEachNeighbor(uint32(u), func(w uint32) bool { want = append(want, w); return true })
		flat.ForEachNeighbor(uint32(u), func(w uint32) bool { got = append(got, w); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("neighbors of %d differ after kill+retry: got %v want %v", u, got, want)
		}
	}
}

// TestGracefulShutdown sends SIGTERM and expects a clean exit (final
// checkpoint written, exit code 0).
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	p := startShard(t, "-shard 0 -shards 1 -addr 127.0.0.1:0 -data "+dir)
	part := shard.NewRangePartitioner(1, 512)
	c, err := remote.DialGraph(part, []string{p.addr}, nil, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pend, err := c.Insert(clusterBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := pend.Wait(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v", err)
	}
}

// statusz decodes a child's /statusz into v.
func statusz(t *testing.T, obsAddr string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + obsAddr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsTakeEffect gives every shardd flag that the kill tests and CI
// leave at its default one row: the row starts real shardd children with
// the flag set and observes what it changes.
func TestFlagsTakeEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	part := shard.NewRangePartitioner(1, 512)
	primary := func(t *testing.T, dir, flags string) *shardProc {
		return startShard(t, "-shard 0 -shards 1 -addr 127.0.0.1:0 -data "+dir+" "+flags)
	}
	dial := func(t *testing.T, primaries, replicas []string, o remote.Options) *remote.Cluster[aspen.Edge] {
		c, err := remote.DialGraph(part, primaries, replicas, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	insert := func(t *testing.T, c *remote.Cluster[aspen.Edge], batches int) {
		for i := 0; i < batches; i++ {
			p, err := c.Insert(clusterBatch(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Wait(); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
	}
	for _, row := range []struct {
		flag  string
		check func(t *testing.T, dir string)
	}{
		{"-fsync off", func(t *testing.T, dir string) {
			c := dial(t, []string{primary(t, dir, "-fsync off").addr}, nil, remote.Options{})
			insert(t, c, 3)
			st, err := c.ShardStats()
			if err != nil {
				t.Fatal(err)
			}
			if w := st[0].WAL; w.Appends < 3 || w.Syncs != 0 {
				t.Fatalf("WAL after 3 acked submits: %d appends, %d syncs; want ≥ 3 and 0", w.Appends, w.Syncs)
			}
		}},
		{"-ckpt-every 2", func(t *testing.T, dir string) {
			c := dial(t, []string{primary(t, dir, "-ckpt-every 2").addr}, nil, remote.Options{})
			insert(t, c, 3)
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(cks) > 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint file after 3 commits")
				}
			}
		}},
		{"-trace-slow 1ns", func(t *testing.T, dir string) {
			p := primary(t, dir, "-trace-slow 1ns -obs-addr 127.0.0.1:0")
			insert(t, dial(t, []string{p.addr}, nil, remote.Options{}), 2)
			var st struct {
				Slow struct{ Seen uint64 } `json:"slow_commits"`
			}
			statusz(t, p.obs, &st)
			if st.Slow.Seen == 0 {
				t.Fatal("/statusz counts no slow commit at a 1ns threshold")
			}
		}},
		{"-promote-after 100ms", func(t *testing.T, dir string) {
			p := primary(t, dir, "")
			r := startShard(t, "-shard 0 -shards 1 -addr 127.0.0.1:0 -obs-addr 127.0.0.1:0 -promote-after 100ms -replica-of "+p.addr)
			c := dial(t, []string{p.addr}, []string{r.addr}, remote.Options{
				DialWait: 2 * time.Second, RetryDeadline: 10 * time.Second, ProbeInterval: 20 * time.Millisecond,
				BreakerThreshold: 2, BreakerCooldown: 10 * time.Millisecond,
				Backoff: remote.Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond},
			})
			insert(t, c, 1)
			if err := p.cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			_ = p.cmd.Wait()
			insert(t, c, 1)
			var st remote.ReplicaStats
			statusz(t, r.obs, &st)
			if !st.Promoted || st.Submits == 0 {
				t.Fatalf("replica of a dead primary: %+v, want promoted with a submit served", st)
			}
		}},
		{"-weighted", func(t *testing.T, dir string) {
			p := primary(t, dir, "-weighted")
			c := dial(t, []string{p.addr}, nil, remote.Options{})
			pend, err := c.Insert(clusterBatch(0))
			if err == nil {
				err = pend.Wait()
			}
			if err == nil || !strings.Contains(err.Error(), "weighted=true") || !strings.Contains(err.Error(), "weighted=false") {
				t.Fatalf("id-only submit to a weighted shardd: %v, want a hello refusal naming both payloads", err)
			}
			cw, err := remote.DialGraphOf[float32](part, []string{p.addr}, nil, remote.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cw.Close()
			pw, err := cw.Insert([]aspen.WeightedEdge{{Src: 1, Dst: 2, Val: 0.5}, {Src: 2, Dst: 1, Val: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			if err := pw.Wait(); err != nil {
				t.Fatalf("weighted submit to a weighted shardd: %v", err)
			}
		}},
	} {
		t.Run(strings.TrimPrefix(strings.Fields(row.flag)[0], "-"), func(t *testing.T) { row.check(t, t.TempDir()) })
	}
}
