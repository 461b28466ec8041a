// Package gateway is the multi-tenant serving front end: a coordinator
// through which many simulated tenants — each with an identity, an SLO
// class, and its own workload mix — share one cluster. Admission is
// two-level: every tenant op first clears its tenant's token bucket (rate +
// burst, refilled on simulated time — the non-work-conserving cap that
// holds a noisy neighbor to its contract even when the cluster is idle) and
// the tenant's inflight cap, then optionally competes for the coordinator's
// bounded service slots in weighted start-time-fair order. Whatever is
// admitted flows into the cluster as ordinary client-class I/O, where the
// per-OSD qos.Scheduler arbitrates it against background dedup, recovery,
// scrub and GC traffic. Tenant identity rides along on trace spans and
// per-tenant registry instruments, so every op in the cluster is
// attributable to the tenant that issued it.
package gateway

import (
	"math"
	"math/bits"
	"time"

	"dedupstore/internal/sim"
)

// TokenBucket meters admission in tokens (bytes) per second with a burst
// allowance. Refill is computed lazily from elapsed simulated time with
// 128-bit integer arithmetic — no floats, no wall clock — so admission
// timing is bit-for-bit deterministic across runs and platforms.
//
// A bucket with rate 0 never refills: once its initial burst is spent,
// takers park on an internal condition until SetRate gives the tenant a
// budget again. That is the "starves cleanly" contract — a zero-rate tenant
// blocks without spinning, scheduling events, or perturbing the rest of the
// simulation.
type TokenBucket struct {
	rate   int64 // tokens added per second (0 = never refills)
	burst  int64 // bucket capacity; also the largest single take
	tokens int64
	last   sim.Time // virtual time tokens were last accrued to

	starved *sim.Cond // parks takers while rate is 0 and tokens are short
}

// NewTokenBucket returns a bucket holding burst tokens (minimum 1),
// starting full, refilling at rate tokens per second. rate <= 0 means no
// refill ever: the bucket grants only its initial burst.
func NewTokenBucket(rate, burst int64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	if rate < 0 {
		rate = 0
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, starved: sim.NewCond()}
}

// Rate returns the refill rate in tokens per second.
func (b *TokenBucket) Rate() int64 { return b.rate }

// Burst returns the bucket capacity.
func (b *TokenBucket) Burst() int64 { return b.burst }

// mulDiv returns a*b/c through a 128-bit intermediate, saturating at
// MaxInt64. All arguments must be non-negative and c positive.
func mulDiv(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(c))
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(q)
}

// mulDivCeil is mulDiv rounding up, so a computed refill wait always covers
// the deficit in one sleep.
func mulDivCeil(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return math.MaxInt64
	}
	q, r := bits.Div64(hi, lo, uint64(c))
	if r > 0 {
		q++
	}
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(q)
}

// refill accrues tokens for the time elapsed since the last accrual. The
// accrual point advances only by the time actually converted into whole
// tokens, so fractional refill is never lost to frequent polling.
func (b *TokenBucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	if b.rate <= 0 || b.tokens >= b.burst {
		b.last = now
		return
	}
	add := mulDiv(int64(now-b.last), b.rate, int64(time.Second))
	if add <= 0 {
		return
	}
	if b.tokens+add >= b.burst || b.tokens+add < 0 {
		b.tokens = b.burst
		b.last = now
		return
	}
	b.tokens += add
	b.last += sim.Time(mulDiv(add, int64(time.Second), b.rate))
	if b.last > now {
		b.last = now
	}
}

// Tokens returns the balance as of now.
func (b *TokenBucket) Tokens(now sim.Time) int64 {
	b.refill(now)
	return b.tokens
}

// TryTake takes n tokens if the balance as of now covers them, without
// blocking. n is clamped to [1, burst].
func (b *TokenBucket) TryTake(now sim.Time, n int64) bool {
	n = b.clamp(n)
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Take blocks until n tokens are available, takes them, and returns how
// long the caller waited. n is clamped to [1, burst] so an oversized
// request costs a full bucket rather than blocking forever. Concurrent
// takers are served in deterministic simulation order; with rate 0 the
// caller parks until SetRate restores a budget.
func (b *TokenBucket) Take(p *sim.Proc, n int64) time.Duration {
	n = b.clamp(n)
	start := p.Now()
	for {
		b.refill(p.Now())
		if b.tokens >= n {
			b.tokens -= n
			return (p.Now() - start).Duration()
		}
		if b.rate <= 0 {
			b.starved.Wait(p)
			continue
		}
		wait := mulDivCeil(n-b.tokens, int64(time.Second), b.rate)
		if wait < 1 {
			wait = 1
		}
		p.Sleep(time.Duration(wait))
	}
}

// SetRate retunes the bucket. The balance is accrued at the old rate up to
// now, then clamped to the new burst; parked zero-rate takers are woken to
// re-check. Must be called from within the simulation.
func (b *TokenBucket) SetRate(p *sim.Proc, rate, burst int64) {
	b.refill(p.Now())
	if burst < 1 {
		burst = 1
	}
	if rate < 0 {
		rate = 0
	}
	b.rate, b.burst = rate, burst
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = p.Now()
	b.starved.Broadcast(p)
}

func (b *TokenBucket) clamp(n int64) int64 {
	if n < 1 {
		return 1
	}
	if n > b.burst {
		return b.burst
	}
	return n
}
