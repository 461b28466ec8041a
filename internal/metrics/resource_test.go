package metrics

import (
	"testing"
	"time"

	"dedupstore/internal/sim"
)

func TestResourceMonitor(t *testing.T) {
	e := sim.New(1)
	disk := sim.NewResource("disk", 1)
	mon := NewResourceMonitor()
	mon.Watch(disk)
	mon.Watch(disk) // listed once: its areas must not count twice
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *sim.Proc) {
			disk.Use(p, 10*time.Millisecond)
		})
	}
	e.Run()
	end := sim.Time(30 * time.Millisecond)
	rows := mon.Snapshot(end)
	if len(rows) != 1 || rows[0].Name != "disk" || rows[0].Capacity != 1 {
		t.Fatalf("snapshot = %+v", rows)
	}
	if got := rows[0].MaxQueue; got != 2 {
		t.Errorf("max queue = %d, want 2", got)
	}
	// The single slot was busy the whole 30ms; the queue held 2 then 1
	// waiters for 10ms each.
	if got := rows[0].Utilization; got != 1 {
		t.Errorf("utilization = %v, want 1", got)
	}
	if got := rows[0].AvgQueue; got != 1 {
		t.Errorf("avg queue = %v, want 1", got)
	}
	if out := FormatUsage(rows); out == "" {
		t.Fatal("FormatUsage empty")
	}
}

// TestResourceMonitorSameName: resources that share a name are one row.
// Capacities and areas add, so one busy and one idle slot read half used.
func TestResourceMonitorSameName(t *testing.T) {
	e := sim.New(1)
	busy, idle := sim.NewResource("nic.gw", 1), sim.NewResource("nic.gw", 1)
	mon := NewResourceMonitor()
	mon.Watch(busy)
	mon.Watch(idle)
	e.Go("user", func(p *sim.Proc) { busy.Use(p, 10*time.Millisecond) })
	e.Run()
	rows := mon.Snapshot(sim.Time(10 * time.Millisecond))
	if len(rows) != 1 {
		t.Fatalf("snapshot = %+v, want one row for the shared name", rows)
	}
	if r := rows[0]; r.Capacity != 2 || r.Utilization != 0.5 || r.MaxQueue != 0 {
		t.Errorf("row = %+v, want Capacity 2, Utilization 0.5, MaxQueue 0", r)
	}
}
