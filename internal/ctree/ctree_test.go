package ctree

import (
	"testing"
	"testing/quick"

	"repro/internal/encoding"
	"repro/internal/xhash"
)

// testParams covers the three paper configurations plus a tiny-b stress
// configuration that promotes many heads.
var testParams = []Params{
	{B: 2, Codec: encoding.Delta},
	{B: 8, Codec: encoding.Delta},
	{B: 128, Codec: encoding.Delta},
	{B: 128, Codec: encoding.Raw},
	PlainParams(),
}

func sortedUnique(r *xhash.RNG, n, maxVal int) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[r.Uint32()%uint32(maxVal)] = true
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	// insertion sort is fine at test sizes
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func slicesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildAndEnumerate(t *testing.T) {
	r := xhash.NewRNG(1)
	for _, p := range testParams {
		for _, n := range []int{0, 1, 2, 10, 500, 5000} {
			elems := sortedUnique(r, n, 4*n+10)
			tr := Build(p, elems)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("params %+v n=%d: %v", p, n, err)
			}
			if got := tr.ToSlice(); !slicesEqual(got, elems) {
				t.Fatalf("params %+v n=%d: enumeration mismatch", p, n)
			}
			if tr.Size() != uint64(n) {
				t.Fatalf("params %+v n=%d: Size=%d", p, n, tr.Size())
			}
		}
	}
}

func TestContains(t *testing.T) {
	r := xhash.NewRNG(2)
	for _, p := range testParams {
		elems := sortedUnique(r, 1000, 10_000)
		tr := Build(p, elems)
		in := map[uint32]bool{}
		for _, e := range elems {
			in[e] = true
			if !tr.Contains(e) {
				t.Fatalf("params %+v: missing %d", p, e)
			}
		}
		for i := 0; i < 2000; i++ {
			q := r.Uint32() % 12_000
			if tr.Contains(q) != in[q] {
				t.Fatalf("params %+v: Contains(%d) = %v", p, q, !in[q])
			}
		}
	}
}

func TestFirst(t *testing.T) {
	for _, p := range testParams {
		if _, ok := New(p).First(); ok {
			t.Fatal("empty tree has First")
		}
		tr := Build(p, []uint32{7, 9, 100})
		if f, ok := tr.First(); !ok || f != 7 {
			t.Fatalf("First = %d,%v", f, ok)
		}
	}
}

func TestInsertDeleteModel(t *testing.T) {
	for _, p := range testParams {
		r := xhash.NewRNG(3)
		tr := New(p)
		model := map[uint32]bool{}
		for step := 0; step < 1500; step++ {
			e := r.Uint32() % 400
			if r.Intn(3) != 0 {
				tr = tr.Insert(e)
				model[e] = true
			} else {
				tr = tr.Delete(e)
				delete(model, e)
			}
			if step%300 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("params %+v step %d: %v", p, step, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		if int(tr.Size()) != len(model) {
			t.Fatalf("params %+v: size %d, want %d", p, tr.Size(), len(model))
		}
		for e := range model {
			if !tr.Contains(e) {
				t.Fatalf("params %+v: lost %d", p, e)
			}
		}
	}
}

func TestPersistenceAcrossVersions(t *testing.T) {
	p := Params{B: 4, Codec: encoding.Delta}
	tr := New(p)
	var versions []Set
	for i := uint32(0); i < 300; i++ {
		versions = append(versions, tr)
		tr = tr.Insert(i)
	}
	for i, v := range versions {
		if v.Size() != uint64(i) {
			t.Fatalf("version %d mutated: size %d", i, v.Size())
		}
		if i > 0 && !v.Contains(uint32(i-1)) {
			t.Fatalf("version %d lost element", i)
		}
		if v.Contains(uint32(i)) {
			t.Fatalf("version %d sees future element", i)
		}
	}
}

func TestSplitProperty(t *testing.T) {
	for _, p := range testParams {
		p := p
		if err := quick.Check(func(seed uint64, kRaw uint16) bool {
			r := xhash.NewRNG(seed)
			elems := sortedUnique(r, int(seed%200), 600)
			k := uint32(kRaw % 700)
			tr := Build(p, elems)
			l, found, rr := tr.Split(k)
			if err := l.CheckInvariants(); err != nil {
				return false
			}
			if err := rr.CheckInvariants(); err != nil {
				return false
			}
			var wantL, wantR []uint32
			wantFound := false
			for _, e := range elems {
				switch {
				case e < k:
					wantL = append(wantL, e)
				case e > k:
					wantR = append(wantR, e)
				default:
					wantFound = true
				}
			}
			return slicesEqual(l.ToSlice(), wantL) &&
				slicesEqual(rr.ToSlice(), wantR) &&
				found == wantFound
		}, &quick.Config{MaxCount: 120}); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
	}
}

func setOf(elems []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(elems))
	for _, e := range elems {
		m[e] = true
	}
	return m
}

func TestSetAlgebraProperty(t *testing.T) {
	for _, p := range testParams {
		p := p
		if err := quick.Check(func(s1, s2 uint64) bool {
			r1, r2 := xhash.NewRNG(s1), xhash.NewRNG(s2)
			ea := sortedUnique(r1, int(s1%300), 900)
			eb := sortedUnique(r2, int(s2%300), 900)
			a, b := Build(p, ea), Build(p, eb)
			u := a.Union(b)
			d := a.Difference(b)
			in := a.Intersect(b)
			for _, tr := range []Set{u, d, in} {
				if err := tr.CheckInvariants(); err != nil {
					return false
				}
			}
			sa, sb := setOf(ea), setOf(eb)
			var wantU, wantD, wantI []uint32
			for x := uint32(0); x < 900; x++ {
				if sa[x] || sb[x] {
					wantU = append(wantU, x)
				}
				if sa[x] && !sb[x] {
					wantD = append(wantD, x)
				}
				if sa[x] && sb[x] {
					wantI = append(wantI, x)
				}
			}
			return slicesEqual(u.ToSlice(), wantU) &&
				slicesEqual(d.ToSlice(), wantD) &&
				slicesEqual(in.ToSlice(), wantI)
		}, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
	}
}

func TestUnionCommutative(t *testing.T) {
	p := DefaultParams()
	if err := quick.Check(func(s1, s2 uint64) bool {
		r1, r2 := xhash.NewRNG(s1), xhash.NewRNG(s2)
		a := Build(p, sortedUnique(r1, 200, 2000))
		b := Build(p, sortedUnique(r2, 200, 2000))
		return slicesEqual(a.Union(b).ToSlice(), b.Union(a).ToSlice())
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiInsertDelete(t *testing.T) {
	for _, p := range testParams {
		r := xhash.NewRNG(9)
		base := sortedUnique(r, 800, 5000)
		batch := sortedUnique(r, 300, 5000)
		tr := Build(p, base).MultiInsert(batch)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		want := setOf(base)
		for _, e := range batch {
			want[e] = true
		}
		if int(tr.Size()) != len(want) {
			t.Fatalf("params %+v: size after MultiInsert = %d, want %d", p, tr.Size(), len(want))
		}
		tr2 := tr.MultiDelete(batch)
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		for _, e := range batch {
			if tr2.Contains(e) {
				t.Fatalf("params %+v: %d survived MultiDelete", p, e)
			}
		}
		for _, e := range base {
			inBatch := false
			for _, x := range batch {
				if x == e {
					inBatch = true
					break
				}
			}
			if !inBatch && !tr2.Contains(e) {
				t.Fatalf("params %+v: MultiDelete removed unrelated %d", p, e)
			}
		}
	}
}

func TestInsertDeleteRoundTripProperty(t *testing.T) {
	p := Params{B: 8, Codec: encoding.Delta}
	if err := quick.Check(func(seed uint64, e uint32) bool {
		r := xhash.NewRNG(seed)
		elems := sortedUnique(r, 100, 1000)
		e %= 1200
		tr := Build(p, elems)
		had := tr.Contains(e)
		tr2 := tr.Insert(e).Delete(e)
		if tr2.Contains(e) {
			return false
		}
		if had {
			return int(tr2.Size()) == len(elems)-1
		}
		return slicesEqual(tr2.ToSlice(), elems)
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	p := Params{B: 4, Codec: encoding.Delta}
	tr := Build(p, []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	count := 0
	tr.ForEach(func(e uint32) bool {
		count++
		return e < 5
	})
	if count != 5 {
		t.Fatalf("visited %d elements, want 5", count)
	}
}

func TestForEachParCoversAll(t *testing.T) {
	p := DefaultParams()
	r := xhash.NewRNG(12)
	elems := sortedUnique(r, 20_000, 100_000)
	tr := Build(p, elems)
	hits := make(chan uint32, 256)
	go func() {
		tr.ForEachPar(func(e uint32) { hits <- e })
		close(hits)
	}()
	got := map[uint32]int{}
	for e := range hits {
		got[e]++
	}
	if len(got) != len(elems) {
		t.Fatalf("visited %d distinct elements, want %d", len(got), len(elems))
	}
	for e, c := range got {
		if c != 1 {
			t.Fatalf("element %d visited %d times", e, c)
		}
	}
}

func TestChunkSizeDistribution(t *testing.T) {
	// With b = 64, chunks should average close to 64 elements (paper §3.1).
	p := Params{B: 64, Codec: encoding.Delta}
	elems := make([]uint32, 1<<16)
	for i := range elems {
		elems[i] = uint32(i)
	}
	tr := Build(p, elems)
	st := tr.Stats()
	if st.Nodes == 0 {
		t.Fatal("no heads")
	}
	avg := float64(len(elems)) / float64(st.Nodes)
	if avg < 40 || avg > 100 {
		t.Fatalf("average chunk size %.1f, want near 64", avg)
	}
}

func TestStats(t *testing.T) {
	p := DefaultParams()
	elems := make([]uint32, 10_000)
	for i := range elems {
		elems[i] = uint32(2 * i)
	}
	tr := Build(p, elems)
	st := tr.Stats()
	if st.Elements != uint64(len(elems)) {
		t.Fatalf("Elements = %d", st.Elements)
	}
	// Difference encoding of gap-2 runs: ~1 byte per element + headers.
	if st.ChunkBytes > 3*len(elems) {
		t.Fatalf("ChunkBytes = %d too large", st.ChunkBytes)
	}
	plain := Build(PlainParams(), elems)
	ps := plain.Stats()
	if ps.Nodes != len(elems) {
		t.Fatalf("plain mode nodes = %d, want %d", ps.Nodes, len(elems))
	}
	if ps.ChunkBytes != 0 {
		t.Fatalf("plain mode chunk bytes = %d, want 0", ps.ChunkBytes)
	}
}

func TestIntersectSlice(t *testing.T) {
	p := DefaultParams()
	tr := Build(p, []uint32{1, 3, 5, 7, 9, 11})
	got := tr.IntersectSlice([]uint32{2, 3, 4, 5, 12})
	if !slicesEqual(got, []uint32{3, 5}) {
		t.Fatalf("IntersectSlice = %v", got)
	}
}

func TestParamMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on params mismatch")
		}
	}()
	a := Build(Params{B: 8, Codec: encoding.Delta}, []uint32{1})
	b := Build(Params{B: 16, Codec: encoding.Delta}, []uint32{2})
	a.Union(b)
}

func TestLargeUnionStress(t *testing.T) {
	p := DefaultParams()
	r := xhash.NewRNG(77)
	a := Build(p, sortedUnique(r, 30_000, 200_000))
	b := Build(p, sortedUnique(r, 30_000, 200_000))
	u := a.Union(b)
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := setOf(a.ToSlice())
	for _, e := range b.ToSlice() {
		want[e] = true
	}
	if int(u.Size()) != len(want) {
		t.Fatalf("union size %d, want %d", u.Size(), len(want))
	}
	d := u.Difference(b)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, e := range b.ToSlice() {
		if d.Contains(e) {
			t.Fatalf("difference kept %d", e)
		}
	}
}

func TestEqualRep(t *testing.T) {
	p := DefaultParams()
	r := xhash.NewRNG(41)
	elems := sortedUnique(r, 500, 5000)
	a := Build(p, elems)
	if !a.EqualRep(a) {
		t.Fatal("tree must equal its own representation")
	}
	b := Build(p, elems)
	if a.EqualRep(b) {
		t.Fatal("independently built trees must not share representation")
	}
	// A functional no-op update (inserting a present element) returns the
	// same representation.
	c := a.Insert(elems[10])
	if !a.EqualRep(c) {
		t.Fatal("no-op insert should return the identical tree")
	}
	// Difference of shared representations is empty without traversal.
	if !a.Difference(c).Empty() {
		t.Fatal("self-difference should be empty")
	}
}

// TestZeroValueTreeReads pins the historical behavior of the zero Tree:
// read operations are safe no-ops (PR 2's interned-config representation
// must resolve it lazily rather than dereference a nil config).
func TestZeroValueTreeReads(t *testing.T) {
	var s Set
	if s.Contains(3) {
		t.Fatal("zero tree contains an element")
	}
	if _, ok := s.Find(3); ok {
		t.Fatal("zero tree finds an element")
	}
	if !s.Empty() || s.Size() != 0 {
		t.Fatal("zero tree not empty")
	}
	s.ForEach(func(uint32) bool { t.Fatal("zero tree enumerated"); return false })
	s.ForEachPar(func(uint32) { t.Fatal("zero tree enumerated (par)") })
	if got := s.ToSlice(); len(got) != 0 {
		t.Fatalf("zero tree ToSlice = %v", got)
	}
	if _, ok := s.First(); ok {
		t.Fatal("zero tree has First")
	}
	var w Tree[float32]
	if _, ok := w.Find(9); ok {
		t.Fatal("zero weighted tree finds an element")
	}
	w.ForEachKV(func(uint32, float32) bool { t.Fatal("zero weighted tree enumerated"); return false })
}

// TestForEachFrom: ForEachFrom(k, f) passes f exactly the elements of rank
// k and on, with early stop, under every configuration and payload width —
// k inside the prefix, at its end, on a head, inside a tail and past the
// size — and a tree rebuilt from its class and handle reads the same.
func TestForEachFrom(t *testing.T) {
	r := xhash.NewRNG(39)
	check := func(name string, tr Tree[float32], elems []uint32) {
		t.Helper()
		if got := ClassOf[float32](tr.Params()).Tree(tr.Handle()); !got.EqualRep(tr) || got.Size() != tr.Size() {
			t.Fatalf("%s: class + handle does not rebuild the tree", name)
		}
		for k := 0; k <= len(elems)+1; k++ {
			var got []uint32
			tr.ForEachFrom(k, func(e uint32) bool { got = append(got, e); return true })
			if want := elems[min(k, len(elems)):]; !slicesEqual(got, want) {
				t.Fatalf("%s: ForEachFrom(%d) = %v, want %v", name, k, got, want)
			}
			if k < len(elems) {
				n := 0
				tr.ForEachFrom(k, func(e uint32) bool { n++; return n < 2 })
				if want := min(2, len(elems)-k); n != want {
					t.Fatalf("%s: ForEachFrom(%d) stopping at 2 made %d calls, want %d", name, k, n, want)
				}
			}
		}
	}
	for _, p := range testParams {
		for _, n := range []int{0, 1, 2, 3, 40, 700} {
			elems := sortedUnique(r, n, 5000)
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = float32(i) + 0.5
			}
			check(p.Codec.String(), BuildKV(p, elems, vals), elems)
			set := Build(p, elems)
			var got []uint32
			set.ForEachFrom(n/2, func(e uint32) bool { got = append(got, e); return true })
			if !slicesEqual(got, elems[n/2:]) {
				t.Fatalf("%+v: id-only ForEachFrom(%d) = %v", p, n/2, got)
			}
		}
	}
	var zero Tree[float32]
	zero.ForEachFrom(0, func(uint32) bool { t.Fatal("zero tree enumerated"); return false })
}
