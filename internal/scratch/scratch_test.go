package scratch

import "testing"

func TestTrimKeepsUpToKeepBytes(t *testing.T) {
	if b := Trim(make([]byte, 10, Keep)); b == nil || len(b) != 0 || cap(b) != Keep {
		t.Fatalf("a Keep-sized byte buffer was not kept empty: len %d cap %d", len(b), cap(b))
	}
	if b := Trim(make([]byte, 10, Keep+1)); b != nil {
		t.Fatal("a byte buffer above Keep was kept")
	}
	// The bound is in bytes, whatever the element.
	if w := Trim(make([]uint64, 1, Keep/8)); w == nil {
		t.Fatal("a Keep-sized word buffer was dropped")
	}
	if w := Trim(make([]uint64, 1, Keep/8+1)); w != nil {
		t.Fatal("a word buffer above Keep was kept")
	}
	if z := Trim(make([]struct{}, 5, 1<<30)); len(z) != 0 {
		t.Fatal("zero-size elements hold no memory and are only emptied")
	}
}

func TestCapNeverGrowsAKeepableBufferPastKeep(t *testing.T) {
	for _, c := range []struct{ need, want int }{
		{0, 0}, {100, 150}, {Keep / 2, 3 * Keep / 4}, {Keep - 1, Keep}, {Keep, Keep}, {Keep + 1, Keep + 1}, {8 * Keep, 8 * Keep},
	} {
		if got := Cap(c.need); got != c.want {
			t.Errorf("Cap(%d) = %d, want %d", c.need, got, c.want)
		}
	}
}
