// Package obs is the observability layer: a zero-allocation metrics
// registry (atomic counters, gauges, read-through views over existing
// counters, and the HDR-style latency histograms the stream engine
// records into), a per-commit stage tracer, and an HTTP server exposing
// Prometheus-text /metrics, JSON /statusz, /healthz, and net/http/pprof
// under /debug/pprof. Everything on the hot path — counter increments,
// histogram observes, stage-trace recording — is allocation-free and
// lock-free (the slow-trace ring takes a mutex only for commits over the
// slow threshold); scraping pays whatever it costs, the writers don't.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free log-linear latency histogram (HDR-style): durations
// are bucketed by octave with 2^subBits linear sub-buckets per octave, so
// every recorded value lands in a bucket whose width is at most 1/2^subBits
// of its magnitude (quantile error ≤ ~1.6% with subBits = 5). Observe is a
// single atomic increment, safe for any number of concurrent recorders —
// the property the stream engine needs to take latency samples on the
// commit path and on every reader without perturbing either.
//
// The zero Hist is ready to use.
type Hist struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Uint64 // nanoseconds
}

const (
	subBits = 5
	subMask = 1<<subBits - 1
	// Buckets 0..31 hold exact nanosecond values; above that, each octave
	// o ≥ subBits contributes 2^subBits sub-buckets.
	numBuckets = (64 - subBits + 1) << subBits
)

// bucketOf maps a nanosecond value to its bucket index (monotone in v).
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	o := bits.Len64(v) - 1 // position of the leading bit, ≥ subBits
	sub := (v >> (uint(o) - subBits)) & subMask
	return (o-subBits)<<subBits + 1<<subBits + int(sub)
}

// bucketMid returns a representative (midpoint) nanosecond value for idx.
func bucketMid(idx int) uint64 {
	if idx < 1<<subBits {
		return uint64(idx)
	}
	k := idx - 1<<subBits
	o := uint(k>>subBits) + subBits
	sub := uint64(k & subMask)
	lo := uint64(1)<<o + sub<<(o-subBits)
	return lo + uint64(1)<<(o-subBits)/2
}

// Observe records one duration. Negative durations count as zero.
func (h *Hist) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n.Load() }

// Sum returns the total of all recorded observations.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// LatencySummary is a fixed quantile digest of a histogram, in nanoseconds
// (the JSON shape /statusz serves).
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary digests the histogram. Concurrent Observes may or may not be
// included; call at quiescence for exact numbers.
func (h *Hist) Summary() LatencySummary {
	var s LatencySummary
	s.Count = h.n.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = time.Duration(h.sum.Load() / s.Count)
	s.Max = time.Duration(h.max.Load())
	// Snapshot the buckets once and extract all quantiles from it.
	var counts [numBuckets]uint64
	total := uint64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	quantile := func(q float64) time.Duration {
		if total == 0 {
			return 0
		}
		rank := uint64(q * float64(total-1))
		cum := uint64(0)
		for i, c := range counts {
			cum += c
			if cum > rank {
				return time.Duration(bucketMid(i))
			}
		}
		return time.Duration(bucketMid(numBuckets - 1))
	}
	s.P50 = quantile(0.50)
	s.P95 = quantile(0.95)
	s.P99 = quantile(0.99)
	if s.P99 > s.Max {
		s.P99 = s.Max // bucket midpoint may overshoot the true extreme
	}
	if s.P95 > s.Max {
		s.P95 = s.Max
	}
	if s.P50 > s.Max {
		s.P50 = s.Max
	}
	return s
}
