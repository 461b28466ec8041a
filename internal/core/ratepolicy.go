package core

import (
	"time"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// The §4.4.2 watermark rate controller, re-expressed for the QoS op
// scheduler. The paper gates dedup I/O by foreground-op counts (one dedup
// I/O per N client I/Os); with every I/O flowing through the per-OSD fair
// queues, the controller watches the trailing foreground IOPS and retunes
// two dedup-class knobs per watermark band:
//
//   - the class weight, so that under contention the scheduler itself
//     dispenses roughly one dedup dispatch per N client dispatches, and
//   - the class rate limit (admission spacing, claimed once per chunk
//     flushed via Group.WaitTurn), which holds the 1:N ratio against the
//     *measured* foreground rate even on idle devices — the fair queue is
//     work-conserving, and without the limit a mostly-idle cluster would
//     let background dedup collide with sparse client I/O far above the
//     paper's trickle.

// ratePolicyTick is how often the controller re-evaluates foreground load.
const ratePolicyTick = 50 * time.Millisecond

// rateWeight maps foreground IOPS to a dedup-class weight: above the high
// watermark the dedup class gets one share per OpsPerDedupAboveHigh client
// shares (paper: 1:500); between the watermarks one per OpsPerDedupMid
// (paper: 1:100); below the low watermark the full base weight — no
// limitation.
func rateWeight(rc RateConfig, base int64, iops float64) int64 {
	gap := rateGap(rc, iops)
	if gap == 0 {
		return base
	}
	if w := base / gap; w > 1 {
		return w
	}
	return 1
}

// rateLimitInterval maps foreground IOPS to a dedup admission spacing: one
// dedup operation (chunk flush) per gap foreground I/Os at the measured
// rate. Zero (no limit) below the low watermark, and when there is no
// measurable foreground rate to couple to.
func rateLimitInterval(rc RateConfig, iops float64) time.Duration {
	gap := rateGap(rc, iops)
	if gap == 0 {
		return 0
	}
	return time.Duration(float64(gap) / iops * float64(time.Second))
}

// rateGap returns the watermark band's foreground-I/Os-per-dedup-I/O ratio
// (at least 1), or 0 below the low watermark: no limitation.
func rateGap(rc RateConfig, iops float64) int64 {
	switch {
	case iops > rc.HighIOPS:
		return max(rc.OpsPerDedupAboveHigh, 1)
	case iops > rc.LowIOPS:
		return max(rc.OpsPerDedupMid, 1)
	}
	return 0
}

// rateTick performs one controller evaluation, retuning the dedup class
// weight and rate limit if the watermark band changed.
func (e *Engine) rateTick() {
	q := e.s.cluster.QoS()
	iops := e.s.cluster.ForegroundOps().RecentIOPS()
	w := rateWeight(e.s.cfg.Rate, e.rateBase, iops)
	iv := rateLimitInterval(e.s.cfg.Rate, iops)
	changed := false
	if q.Weight(qos.Dedup) != w {
		q.SetWeight(qos.Dedup, w)
		changed = true
	}
	if q.Limit(qos.Dedup) != iv {
		q.SetLimit(qos.Dedup, iv)
		changed = true
	}
	if changed {
		e.stats.RateAdjusts++
		e.reg().Counter("dedup_rate_adjusts_total").Inc()
	}
}

// startRatePolicy spawns the controller daemon alongside the dedup workers. It
// runs until the engine stops, sitting out drains (Engine.Drain parks it; a
// restarted engine finds it still there), and restores the base weight on exit
// so a stopped engine leaves the scheduler untouched.
func (e *Engine) startRatePolicy() {
	if !e.s.cfg.Rate.Enabled || e.ratePolicyOn {
		return
	}
	e.ratePolicyOn = true
	e.rateBase = e.s.cluster.QoS().Weight(qos.Dedup)
	e.s.cluster.Engine().GoDaemon("dedup.rate-policy", func(p *sim.Proc) {
		defer func() {
			e.unthrottle()
			e.ratePolicyOn = false
		}()
		for e.started && !e.stopReq {
			if !e.draining {
				e.rateTick()
			}
			p.Sleep(ratePolicyTick)
		}
	})
}

// unthrottle gives the dedup class its base weight and no admission spacing.
func (e *Engine) unthrottle() {
	q := e.s.cluster.QoS()
	q.SetWeight(qos.Dedup, e.rateBase)
	q.SetLimit(qos.Dedup, 0)
}
