package qos

import (
	"math"
	"math/bits"
	"time"

	"dedupstore/internal/sim"
)

// Limiter is the one rate limiter: a token bucket holding up to burst tokens,
// refilled by tokens every per of simulated time. It meters a tenant's bytes
// against its SLO (the gateway) and a class's logical operations against its
// LimitInterval (Group.WaitTurn: one token per interval, burst 1). Refill is
// computed lazily with 128-bit integer arithmetic — no floats, no wall clock —
// so admission timing is bit-for-bit deterministic.
//
// The zero Limiter has no limit. A Limiter whose rate is 0 is a hard
// allowance: once its burst is spent, takers park on a condition nobody
// signals, holding no pending events, so a starved taker blocks without
// spinning or perturbing the rest of the simulation.
type Limiter struct {
	tokens int64         // tokens added per period (0 = never refills)
	per    time.Duration // refill period (0 = no limit)
	burst  int64         // capacity; also the largest single take
	bal    int64         // balance as of last; negative after a postpaid charge
	last   sim.Time      // accrual point: the instant bal is exact at

	starved sim.Cond // parks takers of a spent hard allowance
}

// NewLimiter returns a full bucket of burst tokens (at least 1) refilled by
// tokens every per; per <= 0 means no limit.
func NewLimiter(tokens int64, per time.Duration, burst int64) Limiter {
	return Limiter{tokens: max(tokens, 0), per: max(per, 0), burst: max(burst, 1), bal: max(burst, 1)}
}

// Take blocks p until n tokens are available and takes them. n is clamped to
// [1, burst], so an oversized request costs a full bucket rather than
// blocking forever. A taker short of tokens is due at the accrual point plus
// the time its deficit takes to accrue, and re-checks then: a retune or a
// postpaid charge in between moves the instant, and lifting the limit
// releases it.
func (l *Limiter) Take(p *sim.Proc, n int64) {
	if l.per > 0 { // inlined: an unlimited take costs a compare
		l.take(p, n)
	}
}

func (l *Limiter) take(p *sim.Proc, n int64) {
	n = min(max(n, 1), l.burst)
	for l.per > 0 {
		l.refill(p.Now())
		if l.bal >= n {
			l.bal -= n
			return
		}
		if l.tokens == 0 {
			l.starved.Wait(p)
			continue
		}
		p.SleepUntil(l.last + sim.Time(mulDivCeil(n-l.bal, int64(l.per), l.tokens)))
	}
}

// charge takes n tokens postpaid, without waiting: the balance may go
// negative, pushing every later taker out by the debt.
func (l *Limiter) charge(now sim.Time, n int64) {
	if l.per > 0 {
		l.refill(now)
		l.bal -= n
	}
}

// retune sets a new refill period for a limiter that refills (tokens > 0)
// and keeps the horizon already earned: the instant the balance would be back
// at burst stays where it was. A period of 0 lifts the limit and forgets any
// debt.
func (l *Limiter) retune(per time.Duration) {
	if per <= 0 {
		l.bal = l.burst
	} else if l.per > 0 && l.bal < l.burst {
		deficit := l.burst - l.bal
		full := l.last + sim.Time(mulDivCeil(deficit, int64(l.per), l.tokens))
		l.last = full - sim.Time(mulDivCeil(deficit, int64(per), l.tokens))
	}
	l.per = max(per, 0)
}

// refill accrues whole tokens for the time elapsed since the accrual point,
// which advances only by the time actually converted into tokens, so
// fractional refill is never lost to frequent polling.
func (l *Limiter) refill(now sim.Time) {
	if now <= l.last {
		return
	}
	if l.tokens == 0 || l.bal >= l.burst {
		l.last = now
		return
	}
	add := mulDiv(int64(now-l.last), l.tokens, int64(l.per))
	if add <= 0 {
		return
	}
	if l.bal+add >= l.burst || l.bal+add < l.bal {
		l.bal, l.last = l.burst, now
		return
	}
	l.bal += add
	l.last = min(l.last+sim.Time(mulDiv(add, int64(l.per), l.tokens)), now)
}

// mulDiv returns a*b/c through a 128-bit intermediate, saturating at
// MaxInt64. All arguments must be non-negative and c positive.
func mulDiv(a, b, c int64) int64 {
	q, _ := mulDivRem(a, b, c)
	return q
}

// mulDivCeil is mulDiv rounding up, so a computed due time always covers the
// deficit.
func mulDivCeil(a, b, c int64) int64 {
	q, r := mulDivRem(a, b, c)
	if r > 0 && q < math.MaxInt64 {
		q++
	}
	return q
}

func mulDivRem(a, b, c int64) (int64, uint64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi >= uint64(c) {
		return math.MaxInt64, 0
	}
	q, r := bits.Div64(hi, lo, uint64(c))
	if q > math.MaxInt64 {
		return math.MaxInt64, 0
	}
	return int64(q), r
}
