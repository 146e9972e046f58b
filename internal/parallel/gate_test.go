package parallel

import (
	"testing"
	"time"
)

// TestGateOpenWaitIsFree: Wait on an open gate — zero value, after a
// hold has been released, or a nil gate — returns at once and allocates
// nothing.
func TestGateOpenWaitIsFree(t *testing.T) {
	var g Gate
	if allocs := testing.AllocsPerRun(1000, g.Wait); allocs != 0 {
		t.Fatalf("open Wait allocates %v per call, want 0", allocs)
	}
	if !g.Hold() {
		t.Fatal("the first hold of a fresh gate was declined")
	}
	g.Release()
	if allocs := testing.AllocsPerRun(1000, g.Wait); allocs != 0 {
		t.Fatalf("Wait after Release allocates %v per call, want 0", allocs)
	}
	var nilGate *Gate
	nilGate.Wait()
	if g.Waited() != 0 {
		t.Fatalf("open Waits were timed: %v", g.Waited())
	}
}

// TestGateWaitParksUntilRelease: a reader that reaches Wait while the gate
// is held stays parked until the writer releases it, and the parked time
// is counted.
func TestGateWaitParksUntilRelease(t *testing.T) {
	var g Gate
	if !g.Hold() {
		t.Fatal("hold declined")
	}
	const readers = 3
	started, done := make(chan struct{}, readers), make(chan struct{}, readers)
	for range readers {
		go func() { started <- struct{}{}; g.Wait(); done <- struct{}{} }()
	}
	for range readers {
		<-started
	}
	select {
	case <-done:
		t.Fatal("Wait returned while the gate was held")
	case <-time.After(30 * time.Millisecond):
	}
	g.Release()
	for range readers {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Wait still parked after Release")
		}
	}
	if g.Waited() < 15*time.Millisecond {
		t.Fatalf("parked time %v, want about the 30ms the gate was held", g.Waited())
	}
	if g.Holds() != 1 || g.Declined() != 0 {
		t.Fatalf("holds %d declined %d, want 1 and 0", g.Holds(), g.Declined())
	}
}

// TestGateAlternation: a hold that comes sooner after a Release than the
// last hold lasted is declined (and leaves the gate open); one that comes
// at least that long after is granted.
func TestGateAlternation(t *testing.T) {
	var clock time.Time
	at := func(ms int) { clock = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	g := Gate{now: func() time.Time { return clock }}
	hold := func(ms int, want bool) {
		t.Helper()
		at(ms)
		if got := g.Hold(); got != want {
			t.Fatalf("Hold at %dms = %v, want %v", ms, got, want)
		}
	}
	release := func(ms int) { at(ms); g.Release() }

	hold(0, true)
	release(10) // held 10ms
	hold(15, false)
	if g.held.Load() {
		t.Fatal("a declined hold closed the gate")
	}
	hold(19, false)
	hold(20, true) // 10ms after the release: as long as the hold lasted
	release(21)    // held 1ms
	hold(21, false)
	hold(22, true)
	release(22) // held 0: the next hold is never declined
	hold(22, true)
	release(30)
	if g.Holds() != 4 || g.Declined() != 3 {
		t.Fatalf("holds %d declined %d, want 4 and 3", g.Holds(), g.Declined())
	}
}
