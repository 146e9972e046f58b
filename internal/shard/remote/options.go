package remote

import (
	"math/rand/v2"
	"net"
	"time"
)

// Backoff is a capped exponential backoff with jitter, shared by
// redials, idempotent submit retries and the replica tail loop.
type Backoff struct {
	// Base is the first delay. Default 25ms.
	Base time.Duration
	// Max caps the grown delay. Default 1s.
	Max time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	return b
}

// delay returns the attempt'th backoff delay with ±25% jitter, so
// retry storms from many clients decorrelate instead of thundering.
func (b Backoff) delay(attempt int) time.Duration {
	d := b.Base << uint(min(attempt, 20))
	if d <= 0 || d > b.Max {
		d = b.Max
	}
	j := time.Duration(rand.Int64N(int64(d)/2 + 1))
	return d - d/4 + j
}

// maxInFlight bounds pipelined Submit frames per shard connection
// (backpressure, mirroring the engine's bounded queue).
const maxInFlight = 256

// writeTimeout bounds each client frame write, so a server that stops
// reading cannot wedge a writer goroutine forever.
const writeTimeout = 10 * time.Second

// Options tunes the cluster client, the shard server's dedup window
// and the replica tail loop. The zero value selects the defaults
// documented per field.
type Options struct {
	// DialWait is how long the FIRST contact with an endpoint retries
	// dialing before failing (lets cluster processes start in any
	// order). After an endpoint has been up once, redials are single
	// attempts paced by Backoff. Default 5s.
	DialWait time.Duration
	// DialTimeout bounds one TCP dial attempt. Default 1s.
	DialTimeout time.Duration
	// RPCDeadline bounds the wait for a response to read-path verbs
	// (Pin, Read, Flush-less round trips, Health, Stats); a stalled
	// connection is closed and its calls fail over the usual error
	// path. Default 10s; <0 disables.
	RPCDeadline time.Duration
	// SubmitAckDeadline bounds the wait for one submit attempt's commit
	// ack (commits can legitimately queue behind a deep ingest backlog,
	// so this is looser than RPCDeadline). Default 30s; <0 disables.
	SubmitAckDeadline time.Duration
	// RetryDeadline is the total retry budget of one submitted batch
	// across redials and retransmits; past it the last transport error
	// surfaces to the caller. Default 2m.
	RetryDeadline time.Duration
	// Backoff paces redials, submit retransmits and replica re-tails.
	Backoff Backoff
	// BreakerThreshold is how many consecutive failures move an
	// endpoint from suspect to down (breaker open: operations fail fast
	// without touching the network until the cooldown expires, then one
	// half-open probe attempt decides). Default 3.
	BreakerThreshold int
	// BreakerCooldown is the first open window; it doubles per
	// consecutive open, capped at 20×. Default 250ms.
	BreakerCooldown time.Duration
	// ProbeInterval paces the cluster's health prober, which watches
	// down primaries for a promoted replica to fail over to. Default
	// 250ms.
	ProbeInterval time.Duration
	// PromoteAfter, on a Replica, promotes it to an accepting primary
	// after this much sustained primary loss (no tail progress). 0
	// disables promotion.
	PromoteAfter time.Duration
	// MaxStaleness enables degraded reads: when a shard is fully
	// unreachable (primary and replica), Begin pins fall back to the
	// shard's last cached view if it is at most this old, marking the
	// transaction stale rather than failing it. 0 disables.
	MaxStaleness time.Duration
	// DedupWindow is the per-client exactly-once window on servers and
	// promoted replicas: how many recent client seqs stay answerable as
	// duplicates. Default 4096.
	DedupWindow int
	// Dialer overrides the TCP dial (fault injection; see
	// faults.Transport.Dialer). Nil uses net.DialTimeout.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.DialWait <= 0 {
		o.DialWait = 5 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.RPCDeadline == 0 {
		o.RPCDeadline = 10 * time.Second
	}
	if o.SubmitAckDeadline == 0 {
		o.SubmitAckDeadline = 30 * time.Second
	}
	if o.RetryDeadline <= 0 {
		o.RetryDeadline = 2 * time.Minute
	}
	o.Backoff = o.Backoff.withDefaults()
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.Dialer == nil {
		o.Dialer = net.DialTimeout
	}
	return o
}
