package daemon

import (
	"hash/fnv"
	"time"
)

// DeliveryPolicy tunes the per-router delivery loop (sinkWorker):
// bounded push timeouts, retries with jittered exponential backoff, a
// per-sink circuit breaker that trips the router into degraded
// buffering, and gap-driven resyncs. There is no off switch: a field
// left at zero takes DefaultDeliveryPolicy's value, so the zero policy
// is the default and DeliveryPolicy{Seed: s} is the default re-seeded.
type DeliveryPolicy struct {
	// PushTimeout bounds a single Apply call; past it the attempt counts
	// as failed and the in-flight call is left to finish in the
	// background (the worker waits it out before the next Apply, so the
	// sink still sees at most one Apply at a time).
	PushTimeout time.Duration
	// RetryBudget is how many times one batch is retried after its first
	// failed attempt before the breaker trips regardless of threshold.
	RetryBudget int
	// BackoffBase/BackoffMax bound the exponential retry backoff
	// (base·2ⁿ clamped to max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterFrac spreads each backoff uniformly over ±frac of itself,
	// deterministically from Seed.
	JitterFrac float64
	// BreakerThreshold trips the sink's circuit breaker after this many
	// consecutive failed attempts.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before the
	// half-open recovery probe.
	BreakerCooldown time.Duration
	// BufferBytes caps the degraded-state buffer; past it the oldest
	// batches are coalesced (merged, deduplicated by prefix keeping the
	// last occurrence — semantics-preserving load shedding, since a
	// batch already promises only last-writer-wins).
	BufferBytes int
	// Seed keys the deterministic backoff jitter.
	Seed uint64
}

// DefaultDeliveryPolicy is what every zero DeliveryPolicy field means.
func DefaultDeliveryPolicy() DeliveryPolicy {
	return DeliveryPolicy{
		PushTimeout:      2 * time.Second,
		RetryBudget:      4,
		BackoffBase:      25 * time.Millisecond,
		BackoffMax:       500 * time.Millisecond,
		JitterFrac:       0.2,
		BreakerThreshold: 5,
		BreakerCooldown:  250 * time.Millisecond,
		BufferBytes:      8 << 20,
		Seed:             1,
	}
}

// normalize fills every field the caller left unset from the default.
func (p DeliveryPolicy) normalize() DeliveryPolicy {
	def := DefaultDeliveryPolicy()
	if p.PushTimeout <= 0 {
		p.PushTimeout = def.PushTimeout
	}
	if p.RetryBudget <= 0 {
		p.RetryBudget = def.RetryBudget
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = maxDur(def.BackoffMax, p.BackoffBase)
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = def.JitterFrac
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = def.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = def.BreakerCooldown
	}
	if p.BufferBytes <= 0 {
		p.BufferBytes = def.BufferBytes
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

// ReconnectPolicy governs upstream session recovery: after a session
// failure (and its immediate withdraw), the daemon re-runs the source
// with jittered exponential backoff, up to MaxAttempts reconnects. The
// zero value disables reconnection — a failed session stays down (see
// Config.Reconnect for why this one keeps an off value).
type ReconnectPolicy struct {
	// MaxAttempts bounds reconnects per source (not per incident).
	MaxAttempts int
	// Backoff/BackoffMax bound the exponential reconnect delay.
	Backoff    time.Duration
	BackoffMax time.Duration
	// JitterFrac spreads each delay over ±frac of itself.
	JitterFrac float64
	// Seed keys the deterministic jitter.
	Seed uint64
}

// Enabled reports whether failed sessions are reconnected.
func (p ReconnectPolicy) Enabled() bool { return p != ReconnectPolicy{} }

// DefaultReconnectPolicy is the serve-mode session recovery setting.
func DefaultReconnectPolicy() ReconnectPolicy {
	return ReconnectPolicy{
		MaxAttempts: 8,
		Backoff:     50 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		JitterFrac:  0.2,
		Seed:        1,
	}
}

func (p ReconnectPolicy) normalize() ReconnectPolicy {
	if !p.Enabled() {
		return p
	}
	def := DefaultReconnectPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = def.Backoff
	}
	if p.BackoffMax < p.Backoff {
		p.BackoffMax = maxDur(def.BackoffMax, p.Backoff)
	}
	return p
}

func (p ReconnectPolicy) delay(entity string, attempt int) time.Duration {
	return backoffDelay(p.Backoff, p.BackoffMax, p.JitterFrac, p.Seed, entity, attempt)
}

func (p DeliveryPolicy) delay(entity string, attempt int) time.Duration {
	return backoffDelay(p.BackoffBase, p.BackoffMax, p.JitterFrac, p.Seed, entity, attempt)
}

// backoffDelay is base·2^attempt clamped to max, jittered uniformly
// over ±frac deterministically in (seed, entity, attempt) — never in
// wall time, so two runs with one seed back off identically.
func backoffDelay(base, max time.Duration, frac float64, seed uint64, entity string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if max > 0 && d > max {
		d = max
	}
	if frac > 0 {
		r := unitRand(seed, entity, "backoff", uint64(attempt))
		d = time.Duration(float64(d) * (1 - frac + 2*frac*r))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// unitRand maps (seed, entity, kind, n) to a uniform [0,1) — the
// stateless decision function shared with the chaos layer's fault
// schedule. Stateless means replayable: decisions depend only on their
// inputs, never on how many other decisions were drawn before them.
func unitRand(seed uint64, entity, kind string, n uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(entity))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	x := splitmix64(seed ^ h.Sum64() ^ (n * 0x9e3779b97f4a7c15))
	return float64(x>>11) / float64(1<<53)
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
