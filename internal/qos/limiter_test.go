package qos

import (
	"math/rand"
	"testing"
	"time"

	"dedupstore/internal/sim"
)

// takeAt runs one process that, for each step, sleeps until the step's
// arrival (if still ahead), takes its tokens from l, and records when Take
// returned.
func takeAt(l interface{ Take(*sim.Proc, int64) }, arrivals []sim.Time, takes []int64) []sim.Time {
	eng := sim.New(1)
	defer eng.Close()
	var out []sim.Time
	eng.Go("taker", func(p *sim.Proc) {
		for i, n := range takes {
			p.SleepUntil(arrivals[i])
			l.Take(p, n)
			out = append(out, p.Now())
		}
	})
	eng.Run()
	return out
}

// TestLimiterTable drives Take through the bucket contract: burst served at
// once, refill paced on sim time, oversized takes clamped to burst,
// fractional refill never lost, and a mid-refill arrival due at the accrual
// point plus its deficit.
func TestLimiterTable(t *testing.T) {
	ms := func(f float64) sim.Time { return sim.Time(f * float64(time.Millisecond)) }
	cases := []struct {
		name          string
		tokens, burst int64
		per           time.Duration
		arrivals      []sim.Time
		takes         []int64
		want          []sim.Time
	}{
		{"burst served at once", 1000, 500, time.Second,
			[]sim.Time{0, 0}, []int64{200, 300}, []sim.Time{0, 0}},
		{"deficit accrues on sim time", 1000, 100, time.Second,
			[]sim.Time{0, 0, 0}, []int64{100, 50, 50}, []sim.Time{0, ms(50), ms(100)}},
		{"idle gap refills up to burst only", 1000, 400, time.Second,
			[]sim.Time{0, ms(100), ms(100), ms(10_000), ms(10_000)}, []int64{400, 100, 1, 400, 1},
			[]sim.Time{0, ms(100), ms(101), ms(10_000), ms(10_001)}},
		{"oversized take clamps to burst", 1 << 20, 1 << 10, time.Second,
			[]sim.Time{0, 0}, []int64{1 << 30, 1 << 30}, []sim.Time{0, 976563}}, // ceil(1024 s / 2^20)
		{"tiny rate loses no fraction", 1, 1, time.Second,
			[]sim.Time{0, 0, 0}, []int64{1, 1, 1}, []sim.Time{0, ms(1000), ms(2000)}},
		// The token bucket the limiter replaced slept deficit/rate from the arrival and released
		// this taker at 1.4 ms.
		{"mid-refill arrival due at accrual point + deficit", 1, 1, time.Millisecond,
			[]sim.Time{0, ms(0.4)}, []int64{1, 1}, []sim.Time{0, ms(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.tokens, tc.per, tc.burst)
			got := takeAt(&l, tc.arrivals, tc.takes)
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("take %d of %d tokens released at %v, want %v", i, tc.takes[i], got[i], tc.want[i])
				}
			}
		})
	}
}

// TestLimiterZeroRateStarves checks the hard-allowance contract: a zero-rate
// limiter grants its burst, then parks takers on its condition without
// scheduling wakeup events.
func TestLimiterZeroRateStarves(t *testing.T) {
	eng := sim.New(1)
	l := NewLimiter(0, time.Second, 100)
	admitted := 0
	eng.Go("taker", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			l.Take(p, 50)
			admitted++
		}
	})
	eng.RunUntil(sim.Time(time.Hour))
	if admitted != 2 {
		t.Fatalf("zero-rate limiter admitted %d takes of its 100-token burst, want 2", admitted)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("starved taker left %d events queued — it must park, not poll", n)
	}
	if got := l.starved.Waiters(); got != 1 {
		t.Fatalf("starved taker not parked on the limiter's condition (waiters=%d)", got)
	}
}

// TestLimiterConservation checks conservation under contention — the total
// admitted over a window never exceeds burst + rate×time, nor falls far
// below it — and that the outcome does not depend on the engine seed.
func TestLimiterConservation(t *testing.T) {
	const (
		rate  = 50_000
		burst = 10_000
		horiz = 2 * time.Second
	)
	run := func(seed int64) int64 {
		eng := sim.New(seed)
		l := NewLimiter(rate, time.Second, burst)
		var admitted int64
		for w := 0; w < 16; w++ {
			eng.GoDaemon("taker", func(p *sim.Proc) {
				for {
					l.Take(p, 700)
					admitted += 700
				}
			})
		}
		eng.Go("clock", func(p *sim.Proc) { p.Sleep(horiz) })
		eng.RunUntil(sim.Time(horiz))
		return admitted
	}
	admitted := run(7)
	limit := int64(burst) + int64(rate*horiz.Seconds())
	if admitted > limit || admitted < limit*9/10 {
		t.Fatalf("admitted %d tokens over %v, want within [%d, %d]", admitted, horiz, limit*9/10, limit)
	}
	for _, seed := range []int64{1, 2, 99} {
		if got := run(seed); got != admitted {
			t.Fatalf("seed %d admitted %d, seed 7 admitted %d — limiter timing not seed-independent", seed, got, admitted)
		}
	}
}

// TestLimiterRetuneKeepsEarnedSlot: a class limit retuned to a longer
// interval neither delays a slot already due nor pushes out one already
// earned under the old interval; the new spacing applies from there on.
func TestLimiterRetuneKeepsEarnedSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes[Dedup].LimitInterval = 10 * time.Millisecond
	g := NewGroup(cfg)
	var got []time.Duration
	eng := sim.New(1)
	eng.Go("dedup", func(p *sim.Proc) {
		turn := func() { g.WaitTurn(p, Dedup); got = append(got, p.Now().Duration()) }
		turn()                         // 0: next slot due at 10ms
		p.Sleep(15 * time.Millisecond) // the slot is already due
		g.SetLimit(Dedup, 50*time.Millisecond)
		turn()                        // 15ms, not 50ms; next due at 65ms
		p.Sleep(5 * time.Millisecond) // 20ms: the 65ms slot is earned
		g.SetLimit(Dedup, 100*time.Millisecond)
		turn() // still 65ms
		turn() // 165ms: the new spacing
	})
	eng.Run()
	want := []time.Duration{0, 15 * time.Millisecond, 65 * time.Millisecond, 165 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("admissions at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admissions at %v, want %v", got, want)
		}
	}
}

// refBucket is the gateway's token bucket as it stood before the limiter
// replaced it, kept only as the reference TestLimiterMatchesRefBucket
// measures against: refill is identical, but a short taker sleeps its
// deficit from the moment it arrived rather than from the accrual point.
type refBucket struct {
	rate, burst, tokens int64
	last                sim.Time
}

func (b *refBucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	if b.tokens >= b.burst {
		b.last = now
		return
	}
	add := mulDiv(int64(now-b.last), b.rate, int64(time.Second))
	if add <= 0 {
		return
	}
	if b.tokens+add >= b.burst || b.tokens+add < 0 {
		b.tokens, b.last = b.burst, now
		return
	}
	b.tokens += add
	b.last = min(b.last+sim.Time(mulDiv(add, int64(time.Second), b.rate)), now)
}

func (b *refBucket) Take(p *sim.Proc, n int64) {
	n = min(max(n, 1), b.burst)
	for {
		b.refill(p.Now())
		if b.tokens >= n {
			b.tokens -= n
			return
		}
		p.Sleep(time.Duration(max(mulDivCeil(n-b.tokens, int64(time.Second), b.rate), 1)))
	}
}

// TestLimiterMatchesRefBucket is a single-taker differential against the
// reference bucket: from the same random state (rate, burst, balance,
// accrual point), one take arriving at a random instant is never released
// later by the limiter, and at most one token period plus 1 ns earlier.
func TestLimiterMatchesRefBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	earlier := 0
	for trial := 0; trial < 5000; trial++ {
		rate := 1 + rng.Int63n(1<<uint(rng.Intn(31)))
		burst := 1 + rng.Int63n(4*rate)
		bal := rng.Int63n(burst + 1)
		last := sim.Time(rng.Int63n(int64(time.Second)))
		period := sim.Time(mulDivCeil(1, int64(time.Second), rate))
		arrival := last + sim.Time(rng.Int63n(int64(3*period)))
		n := 1 + rng.Int63n(burst)

		l := NewLimiter(rate, time.Second, burst)
		l.bal, l.last = bal, last
		got := takeAt(&l, []sim.Time{arrival}, []int64{n})[0]
		want := takeAt(&refBucket{rate: rate, burst: burst, tokens: bal, last: last}, []sim.Time{arrival}, []int64{n})[0]
		if got > want || want-got > period+1 {
			t.Fatalf("rate %d/s burst %d, %d tokens at %v, take %d at %v: limiter released at %v, reference at %v (token period %v)",
				rate, burst, bal, last, n, arrival, got, want, period)
		}
		if got < want {
			earlier++
		}
	}
	if earlier == 0 {
		t.Fatal("the limiter never released a taker earlier than the reference — the schedules miss the case that differs")
	}
}

// TestMulDiv covers the 128-bit helper's edge cases.
func TestMulDiv(t *testing.T) {
	cases := []struct{ a, b, c, want, ceil int64 }{
		{0, 5, 3, 0, 0},
		{10, 10, 3, 33, 34},
		{1 << 40, 1 << 40, 1 << 20, 1 << 60, 1 << 60},
		{1 << 62, 1 << 62, 1, 1<<63 - 1, 1<<63 - 1}, // saturates
	}
	for _, tc := range cases {
		if got := mulDiv(tc.a, tc.b, tc.c); got != tc.want {
			t.Errorf("mulDiv(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.c, got, tc.want)
		}
		if got := mulDivCeil(tc.a, tc.b, tc.c); got != tc.ceil {
			t.Errorf("mulDivCeil(%d,%d,%d) = %d, want %d", tc.a, tc.b, tc.c, got, tc.ceil)
		}
	}
}
