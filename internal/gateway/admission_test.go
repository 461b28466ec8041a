package gateway

import (
	"testing"
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/sim"
)

// runSim executes fn as a sim process and drives the engine to completion.
func runSim(t *testing.T, seed int64, fn func(p *sim.Proc)) {
	t.Helper()
	eng := sim.New(seed)
	eng.Go("test", fn)
	eng.Run()
}

// bucketTenant registers a tenant whose SLO is only a token bucket.
func bucketTenant(t *testing.T, rate, burst int64) *Tenant {
	t.Helper()
	tn, err := New(metrics.NewRegistry(), 0).Register("b", SLO{Class: "custom", RateBps: rate, Burst: burst})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// take admits one zero-length op of n bytes and returns its admission wait.
func take(p *sim.Proc, tn *Tenant, n int64) time.Duration {
	start := p.Now()
	tn.Do(p, n, func(*sim.Proc) {})
	return (p.Now() - start).Duration()
}

// TestTokenBucketTable drives a tenant's token bucket through the contract
// cases: burst served instantly, refill paced on sim time, oversized takes
// clamped to burst, fractional refill never lost.
func TestTokenBucketTable(t *testing.T) {
	cases := []struct {
		name        string
		rate, burst int64
		takes       []int64         // sequential takes from one proc
		wantWaits   []time.Duration // expected blocking time per take
	}{
		{
			name: "burst served instantly",
			rate: 1000, burst: 500,
			takes:     []int64{200, 300},
			wantWaits: []time.Duration{0, 0},
		},
		{
			name: "deficit waits exactly deficit/rate",
			rate: 1000, burst: 100, // 1000 tokens/s = 1 token/ms
			takes:     []int64{100, 50, 50},
			wantWaits: []time.Duration{0, 50 * time.Millisecond, 50 * time.Millisecond},
		},
		{
			name: "oversized take clamps to burst",
			rate: 1 << 20, burst: 1 << 10,
			takes:     []int64{1 << 30, 1 << 30},                    // each costs one full bucket
			wantWaits: []time.Duration{0, 976563 * time.Nanosecond}, // ceil(1024 s / 2^20)
		},
		{
			name: "tiny rate accrues without losing fractions",
			rate: 1, burst: 1, // 1 token per second
			takes:     []int64{1, 1, 1},
			wantWaits: []time.Duration{0, time.Second, time.Second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := bucketTenant(t, tc.rate, tc.burst)
			runSim(t, 1, func(p *sim.Proc) {
				for i, n := range tc.takes {
					if got := take(p, tn, n); got != tc.wantWaits[i] {
						t.Errorf("take %d of %d tokens: waited %v, want %v", i, n, got, tc.wantWaits[i])
					}
				}
			})
		})
	}
}

// TestTokenBucketRefillOnSimTime checks that an idle gap refills the bucket
// from virtual time alone, capped at burst.
func TestTokenBucketRefillOnSimTime(t *testing.T) {
	tn := bucketTenant(t, 1000, 400)
	runSim(t, 1, func(p *sim.Proc) {
		want := func(n int64, wait time.Duration) {
			t.Helper()
			if got := take(p, tn, n); got != wait {
				t.Errorf("take %d at %v: waited %v, want %v", n, p.Now(), got, wait)
			}
		}
		want(400, 0)
		p.Sleep(100 * time.Millisecond) // +100 tokens
		want(100, 0)
		want(1, time.Millisecond) // and not one more
		p.Sleep(10 * time.Second) // way past burst: cap
		want(400, 0)
		want(1, time.Millisecond)
	})
}

// TestTokenBucketZeroRateStarves checks the clean-starvation contract: a
// zero-rate bucket (a hard allowance) grants its burst, then parks takers
// without scheduling wakeup events.
func TestTokenBucketZeroRateStarves(t *testing.T) {
	eng := sim.New(1)
	tn := bucketTenant(t, 0, 100)
	admitted := 0
	eng.Go("taker", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			tn.Do(p, 50, func(*sim.Proc) {})
			admitted++
		}
	})
	// With no refill the run must terminate on its own — parked takers hold
	// no pending events (clean starvation, not a spin).
	if live := eng.RunUntil(sim.Time(time.Hour)); live != 1 {
		t.Fatalf("%d processes live after the run, want the one starved taker", live)
	}
	if admitted != 2 {
		t.Fatalf("zero-rate bucket admitted %d takes of its 100-token burst, want 2", admitted)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("starved taker left %d events queued — it must park, not poll", n)
	}
	if st := eng.Stats(); st.EventsDispatched > 20 {
		t.Fatalf("starvation dispatched %d events — looks like polling", st.EventsDispatched)
	}
}

// TestTokenBucketDeterministic runs the same contended schedule under
// several seeds: admission timing derives from virtual time only, so every
// seed must produce the identical wait sequence.
func TestTokenBucketDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var waits []time.Duration
		eng := sim.New(seed)
		tn := bucketTenant(t, 10_000, 1000)
		for w := 0; w < 4; w++ {
			eng.Go("taker", func(p *sim.Proc) {
				for i := 0; i < 8; i++ {
					waits = append(waits, take(p, tn, 300))
				}
			})
		}
		eng.Run()
		return waits
	}
	want := run(1)
	for _, seed := range []int64{2, 3, 99} {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d waits, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d wait %d: %v != %v — bucket timing not seed-independent", seed, i, got[i], want[i])
			}
		}
	}
}

// TestTokenBucketConcurrentTakers checks conservation under contention: the
// total admitted over a window never exceeds burst + rate×time.
func TestTokenBucketConcurrentTakers(t *testing.T) {
	eng := sim.New(7)
	const (
		rate  = 50_000
		burst = 10_000
		horiz = 2 * time.Second
	)
	tn := bucketTenant(t, rate, burst)
	var admitted int64
	for w := 0; w < 16; w++ {
		eng.GoDaemon("taker", func(p *sim.Proc) {
			for {
				tn.Do(p, 700, func(*sim.Proc) {})
				admitted += 700
			}
		})
	}
	// Daemons alone don't keep the engine alive; a clock proc sets the horizon.
	eng.Go("clock", func(p *sim.Proc) { p.Sleep(horiz) })
	eng.RunUntil(sim.Time(horiz))
	limit := int64(burst) + int64(float64(rate)*horiz.Seconds())
	if admitted > limit {
		t.Fatalf("admitted %d tokens over %v, contract allows at most %d", admitted, horiz, limit)
	}
	if admitted < limit*9/10 {
		t.Fatalf("admitted only %d of ~%d tokens — bucket underserving under contention", admitted, limit)
	}
}
