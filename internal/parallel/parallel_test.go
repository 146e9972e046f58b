package parallel

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xhash"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 50_000} {
		hits := make([]atomic.Int32, n)
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	const n = 10_000
	var sum atomic.Int64
	ForGrain(n, 8, func(i int) { sum.Add(int64(i)) })
	want := int64(n) * (n - 1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestRangePartition(t *testing.T) {
	const n = 12_345
	covered := make([]atomic.Int32, n)
	Range(n, 100, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) }, func() { c.Store(true) })
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("Do did not run all thunks")
	}
}

// TestClaimNeverWaitsForAnUnstartedHelper holds every helper off before it
// starts: the caller must run every piece itself and return, and a helper
// that starts afterwards must find nothing left to run.
func TestClaimNeverWaitsForAnUnstartedHelper(t *testing.T) {
	defer func(p int) { Procs = p }(Procs)
	Procs = 4
	const n = 100
	release, exited := make(chan struct{}), make(chan struct{}, Procs)
	held := func(help func()) {
		go func() {
			<-release
			help()
			exited <- struct{}{}
		}()
	}
	hits := make([]atomic.Int32, n)
	returned := make(chan struct{})
	go func() {
		claim(n, 1, held, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("claim waited for a helper that had not started")
	}
	close(release)
	for range Procs - 1 {
		<-exited
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("piece %d ran %d times", i, got)
		}
	}
}

// TestClaimWaitsForClaimedPieces: the worker that takes piece 0 holds it
// until the other has run a piece, which then sleeps, so one worker runs
// out of pieces while the other's is still running; claim must still
// return only after every piece has run, each once.
func TestClaimWaitsForClaimedPieces(t *testing.T) {
	defer func(p int) { Procs = p }(Procs)
	Procs = 2
	for range 50 {
		const n = 8
		var hits [n]atomic.Int32
		var once sync.Once
		other := make(chan struct{})
		claim(n, 1, goHelper, func(i, _ int) {
			if i == 0 {
				<-other
			} else {
				once.Do(func() {
					close(other)
					time.Sleep(time.Millisecond)
				})
			}
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("piece %d ran %d times before claim returned", i, got)
			}
		}
	}
}

func TestScanExclusive(t *testing.T) {
	for _, n := range []int{0, 1, 5, 4096, 100_000} {
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(i % 7)
		}
		want := make([]uint64, n)
		var acc uint64
		for i := range a {
			want[i] = acc
			acc += a[i]
		}
		total := ScanExclusive(a)
		if total != acc {
			t.Fatalf("n=%d: total = %d, want %d", n, total, acc)
		}
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: a[%d] = %d, want %d", n, i, a[i], want[i])
			}
		}
	}
}

func TestFilterUint32(t *testing.T) {
	for _, n := range []int{0, 10, 100_000} {
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(i)
		}
		got := FilterUint32(a, func(x uint32) bool { return x%3 == 0 })
		var want []uint32
		for _, x := range a {
			if x%3 == 0 {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: len = %d, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestPackIndices(t *testing.T) {
	old := Procs
	Procs = 4 // the block-count path, whatever the runner has
	defer func() { Procs = old }()
	for _, n := range []int{0, 10, 4096, 3*4096 + 17, 100_000} {
		for name, keep := range map[string]func(i int) bool{
			"odd":   func(i int) bool { return i%2 == 1 },
			"none":  func(i int) bool { return false },
			"all":   func(i int) bool { return true },
			"edges": func(i int) bool { return i%4096 == 0 || i%4096 == 4095 },
		} {
			var want []uint32
			for i := 0; i < n; i++ {
				if keep(i) {
					want = append(want, uint32(i))
				}
			}
			if got := PackIndices(n, keep); !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: packed %d indices, want %d in increasing order", n, name, len(got), len(want))
			}
		}
	}
}

func TestSortUint64Property(t *testing.T) {
	r := xhash.NewRNG(3)
	if err := quick.Check(func(seed uint64, szRaw uint16) bool {
		n := int(szRaw % 2000)
		a := make([]uint64, n)
		rr := xhash.NewRNG(seed)
		for i := range a {
			a[i] = rr.Next() % 1000
		}
		ref := append([]uint64(nil), a...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		SortUint64(a)
		for i := range a {
			if a[i] != ref[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSortUint64Large(t *testing.T) {
	const n = 200_000
	a := make([]uint64, n)
	r := xhash.NewRNG(9)
	for i := range a {
		a[i] = r.Next()
	}
	SortUint64(a)
	for i := 1; i < n; i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestSortUint32Large(t *testing.T) {
	const n = 150_000
	a := make([]uint32, n)
	r := xhash.NewRNG(10)
	for i := range a {
		a[i] = r.Uint32()
	}
	SortUint32(a)
	for i := 1; i < n; i++ {
		if a[i-1] > a[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestDedupSorted(t *testing.T) {
	a := []uint64{1, 1, 2, 3, 3, 3, 9}
	got := DedupSortedUint64(a)
	want := []uint64{1, 2, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	b := []uint32{4, 4, 4}
	if got := DedupSortedUint32(b); len(got) != 1 || got[0] != 4 {
		t.Fatalf("DedupSortedUint32 = %v", got)
	}
	if got := DedupSortedUint32(nil); len(got) != 0 {
		t.Fatalf("DedupSortedUint32(nil) = %v", got)
	}
}

func TestSequentialModeMatchesParallel(t *testing.T) {
	old := Procs
	defer func() { Procs = old }()
	const n = 30_000
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i % 13)
	}
	b := append([]uint64(nil), a...)
	Procs = 1
	t1 := ScanExclusive(a)
	Procs = old
	t2 := ScanExclusive(b)
	if t1 != t2 {
		t.Fatalf("totals differ: %d vs %d", t1, t2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan mismatch at %d", i)
		}
	}
}
