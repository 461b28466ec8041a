package rados

import (
	"time"

	"dedupstore/internal/sim"
)

// Heartbeat-based failure detection. CrashOSD kills a process but leaves
// the CRUSH map untouched; the Monitor is what turns "the process stopped
// answering pings" into map changes, on the same timeline a Ceph mon would:
//
//	crash ──(grace)──> marked down (acting sets shrink; reads degrade,
//	                   writes to that primary start succeeding via the
//	                   new acting primary)
//	down ──(outAfter)──> marked out (PGs remap; auto-recovery re-replicates
//	                     and rebuilds shards onto the survivors)
//	restart ──(next tick)──> marked up/in again; auto-recovery backfills
//
// The monitor runs as a sim daemon so it does not keep the simulation
// alive by itself; recovery it triggers runs as foreground work so Run
// does not return with a rebuild half-done.

// MonitorConfig tunes the failure detector.
type MonitorConfig struct {
	// Interval is the heartbeat/tick period.
	Interval time.Duration
	// Grace is how long an OSD may miss heartbeats before being marked
	// down (Ceph's osd_heartbeat_grace). Detection latency is between
	// Grace and Grace+Interval.
	Grace time.Duration
	// OutAfter is how long an OSD stays down before being marked out,
	// remapping its PGs (Ceph's mon_osd_down_out_interval).
	OutAfter time.Duration
	// AutoRecover runs Recover automatically after mark-out and rejoin.
	// Recovery parallelism is governed by the cluster's QoS recovery class
	// (its depth cap), not by monitor configuration.
	AutoRecover bool
}

// DefaultMonitorConfig returns the detector defaults (scaled-down analogs
// of Ceph's 20s grace / 600s down-out interval).
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{
		Interval:    500 * time.Millisecond,
		Grace:       2 * time.Second,
		OutAfter:    5 * time.Second,
		AutoRecover: true,
	}
}

// MonEvent is one entry of the monitor's availability timeline.
type MonEvent struct {
	At   sim.Time
	Kind string // "down", "out", "rejoin", "recovered"
	OSD  int    // -1 for cluster-wide events ("recovered")
}

// Monitor watches OSD liveness and drives the down/out/rejoin state
// machine. Create with Cluster.StartMonitor.
type Monitor struct {
	c   *Cluster
	cfg MonitorConfig

	loop     sim.Loop
	lastAck  map[int]sim.Time
	wasAlive map[int]bool
	downAt   map[int]sim.Time
	// markedDown/markedOut record map changes this monitor made, so a
	// rejoin only undoes its own marks and never resurrects an OSD an
	// operator failed administratively.
	markedDown map[int]bool
	markedOut  map[int]bool

	recovering     bool
	pendingRecover bool
	events         []MonEvent
}

// StartMonitor starts the heartbeat failure detector as a daemon process.
func (c *Cluster) StartMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultMonitorConfig().Interval
	}
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultMonitorConfig().Grace
	}
	if cfg.OutAfter <= 0 {
		cfg.OutAfter = DefaultMonitorConfig().OutAfter
	}
	m := &Monitor{
		c:          c,
		cfg:        cfg,
		lastAck:    make(map[int]sim.Time),
		wasAlive:   make(map[int]bool),
		downAt:     make(map[int]sim.Time),
		markedDown: make(map[int]bool),
		markedOut:  make(map[int]bool),
	}
	now := c.eng.Now()
	for _, id := range c.cmap.OSDs() {
		m.lastAck[id] = now
		m.wasAlive[id] = c.OSDAlive(id)
	}
	m.loop = sim.Loop{Name: "mon", Every: cfg.Interval, Tick: func(p *sim.Proc) bool { m.tick(p); return false }}
	m.loop.Start(c.eng)
	return m
}

// Config returns the monitor's effective configuration.
func (m *Monitor) Config() MonitorConfig { return m.cfg }

// Stop ends the monitor loop at its next wake-up (DESIGN.md §9).
func (m *Monitor) Stop() { m.loop.Stop() }

// Events returns the availability timeline so far.
func (m *Monitor) Events() []MonEvent {
	out := make([]MonEvent, len(m.events))
	copy(out, m.events)
	return out
}

func (m *Monitor) note(p *sim.Proc, kind string, osd int) {
	m.events = append(m.events, MonEvent{At: p.Now(), Kind: kind, OSD: osd})
}

func (m *Monitor) tick(p *sim.Proc) {
	c := m.c
	now := p.Now()
	for _, id := range c.cmap.OSDs() {
		o := c.osds[id]
		if o == nil {
			continue
		}
		if o.alive {
			m.lastAck[id] = now
			if !m.wasAlive[id] {
				m.wasAlive[id] = true
				m.rejoin(p, id)
			}
			continue
		}
		m.wasAlive[id] = false
		info, ok := c.cmap.Lookup(id)
		if !ok {
			continue
		}
		if info.Up && (now-m.lastAck[id]).Duration() >= m.cfg.Grace {
			c.cmap.SetUp(id, false)
			m.markedDown[id] = true
			m.downAt[id] = now
			info.Up = false
			m.note(p, "down", id)
			c.reg.Counter("mon_marked_down_total").Inc()
		}
		if !info.Up && info.In && m.markedDown[id] && (now-m.downAt[id]).Duration() >= m.cfg.OutAfter {
			c.cmap.SetIn(id, false)
			m.markedOut[id] = true
			m.note(p, "out", id)
			c.reg.Counter("mon_marked_out_total").Inc()
			m.triggerRecover()
		}
	}
}

// rejoin handles an OSD whose process came back: the monitor undoes its own
// down/out marks and backfills, because a restarted OSD's copies of objects
// written while it was down are stale and it may have lost shards to
// remapping.
func (m *Monitor) rejoin(p *sim.Proc, id int) {
	c := m.c
	if m.markedDown[id] {
		c.cmap.SetUp(id, true)
		delete(m.markedDown, id)
	}
	if m.markedOut[id] {
		c.cmap.SetIn(id, true)
		delete(m.markedOut, id)
	}
	delete(m.downAt, id)
	m.note(p, "rejoin", id)
	c.reg.Counter("mon_rejoined_total").Inc()
	m.triggerRecover()
}

// triggerRecover starts (or queues) a cluster Recover run. Runs are
// serialized; a trigger arriving mid-run schedules exactly one follow-up so
// the final map state is always reconciled.
func (m *Monitor) triggerRecover() {
	if !m.cfg.AutoRecover {
		return
	}
	if m.recovering {
		m.pendingRecover = true
		return
	}
	m.recovering = true
	m.c.eng.GoForeground("mon.recover", func(p *sim.Proc) {
		for {
			m.c.Recover(p)
			m.events = append(m.events, MonEvent{At: p.Now(), Kind: "recovered", OSD: -1})
			if !m.pendingRecover {
				break
			}
			m.pendingRecover = false
		}
		m.recovering = false
	})
}

// Settled reports whether the cluster has reached a stable state: no
// recovery in flight and every OSD either fully in service (alive, up, in)
// or conclusively failed (dead, down, out).
func (m *Monitor) Settled() bool {
	if m.recovering || m.pendingRecover {
		return false
	}
	for _, id := range m.c.cmap.OSDs() {
		o := m.c.osds[id]
		info, ok := m.c.cmap.Lookup(id)
		if o == nil || !ok {
			continue
		}
		if o.alive {
			if !info.Up || !info.In {
				return false // rejoin pending
			}
		} else if info.Up || info.In {
			return false // detection or mark-out pending
		}
	}
	return true
}

// WaitSettled parks p until Settled holds. Run it from a foreground process
// to keep the simulation alive through detection, mark-out and recovery —
// daemon ticks alone do not prevent Engine.Run from returning.
func (m *Monitor) WaitSettled(p *sim.Proc) {
	for !m.Settled() {
		p.Sleep(m.cfg.Interval)
	}
}
