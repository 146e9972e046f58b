package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
	// An even sample reports an observed value, not an interpolated one.
	if got := percentile([]float64{1, 2, 3, 4}, 0.50); got != 2 {
		t.Errorf("median of 1..4 = %v, want the observed 2", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.50}, {100, 0.90}, {400, 0.90}, {999, 0.90}, {1000, 0.99}, {2000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("1..10: got %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{10, 12, 15, 11})
	if !near(q1, 10.25) || !near(med, 11.5) || !near(q3, 14.25) {
		t.Errorf("four values: got %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{4, 2}) // extrapolates, as Python does
	if !near(q1, 1.5) || !near(med, 3) || !near(q3, 4.5) {
		t.Errorf("two values: got %v %v %v", q1, med, q3)
	}
	if got := spread([]float64{10, 12, 15, 11}); !near(got, 4/11.5) {
		t.Errorf("spread = %v", got)
	}
	if spread([]float64{3}) != 0 || median([]float64{3}) != 3 || median(nil) != 0 {
		t.Error("degenerate samples")
	}
}
