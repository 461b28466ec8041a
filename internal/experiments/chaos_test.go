package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// chaos811 is the first simulation of seed 811, shared by
// TestChaosInvariants and TestChaosDeterministic so the package simulates
// chaos three times (811 twice, 1907 once) rather than four. Either test
// computes it when run alone.
var chaos811 = sync.OnceValue(func() []ChaosResult { return ChaosSeeded(tinyScale, 811) })

// chaosCanonical renders chaos results as the experiment's canonical JSON.
func chaosCanonical(t *testing.T, rs []ChaosResult) string {
	t.Helper()
	j, err := Result{Name: "chaos", Tables: ChaosTables(rs)}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestChaosInvariants: under crashes mid-load — including the high-rate
// kill-during-flush and kill-during-GC bursts — no foreground op may fail,
// no data may be lost, and the dedup invariants must hold afterwards. Two
// seeds, per the crash-consistency acceptance bar.
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	for _, seed := range []int64{811, 1907} {
		rs := chaos811()
		if seed != 811 {
			rs = ChaosSeeded(tinyScale, seed)
		}
		for _, r := range rs {
			name := r.Scenario
			if r.ForegroundErrors != 0 {
				t.Errorf("%s seed %d: %d foreground op failures, want 0", name, seed, r.ForegroundErrors)
			}
			if r.VerifyErrors != 0 {
				t.Errorf("%s seed %d: %d objects failed verification, want 0", name, seed, r.VerifyErrors)
			}
			if r.ScrubIssues != 0 {
				t.Errorf("%s seed %d: %d scrub issues, want 0", name, seed, r.ScrubIssues)
			}
			if r.StaleRefs != 0 {
				t.Errorf("%s seed %d: %d stale refs after GC, want 0", name, seed, r.StaleRefs)
			}
			if r.LostChunks != 0 {
				t.Errorf("%s seed %d: %d lost chunks, want 0", name, seed, r.LostChunks)
			}
			if r.DetectLatency <= 0 {
				t.Errorf("%s seed %d: detection latency %v, want > 0 (crash must not be detected instantly)", name, seed, r.DetectLatency)
			}
			if len(r.Timeline) == 0 {
				t.Errorf("%s seed %d: empty availability timeline", name, seed)
			}
			wantDown := 4 * time.Second
			if strings.Contains(name, "kill") {
				wantDown = 5 * 1300 * time.Millisecond
			}
			if r.Downtime != wantDown {
				t.Errorf("%s seed %d: process downtime %v, want %v (the schedule's crashes summed)", name, seed, r.Downtime, wantDown)
			}
			if strings.Contains(name, "kill") {
				// The burst scenarios must actually fire at the elevated
				// fault rate (5 kills vs the single baseline crash).
				crashes := 0
				for _, ev := range r.Timeline {
					if strings.HasPrefix(ev.What, "fault: crash-osd") {
						crashes++
					}
				}
				if crashes < 5 {
					t.Errorf("%s seed %d: only %d crash faults fired, want 5", name, seed, crashes)
				}
			}
		}
	}
}

// TestChaosDeterministic: the whole experiment — fault firing, detection,
// degraded ops, recovery, final metrics — replays bit-for-bit from a seed:
// a fresh run of seed 811 must equal the shared first run's canonical JSON.
func TestChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	if a, b := chaosCanonical(t, chaos811()), chaosCanonical(t, ChaosSeeded(tinyScale, 811)); a != b {
		t.Errorf("chaos diverged between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}
