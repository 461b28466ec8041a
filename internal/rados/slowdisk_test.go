package rados

import (
	"testing"

	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// TestSetOSDSlow checks the slow-disk fault the chaos schedule and the
// cold-tier workload inject: a slowed OSD's disk serves factor × slower, a
// read it serves slows with it, and factor 1 (or anything below it)
// restores the baseline exactly.
func TestSetOSDSlow(t *testing.T) {
	e := newEnv(t)
	const n = 256 << 10
	prim := e.c.acting(e.rep, e.c.PGOf(e.rep, "a"))[0]
	var disk, read [4]sim.Time
	factors := [4]float64{1, 4, 1, 0.5}
	e.run(t, func(p *sim.Proc) {
		if err := e.gw.WriteFull(p, e.rep, "a", make([]byte, n)); err != nil {
			e.fail(err)
		}
		for i, f := range factors {
			if err := e.c.SetOSDSlow(prim.id, f); err != nil {
				e.fail(err)
			}
			t0 := p.Now()
			prim.diskRead(p, qos.Client, e.c.cost, n)
			disk[i] = p.Now() - t0
			t0 = p.Now()
			if _, err := e.gw.Read(p, e.rep, "a", 0, n); err != nil {
				e.fail(err)
			}
			read[i] = p.Now() - t0
		}
	})
	if disk[1] < 4*disk[0]-1 || disk[1] > 4*disk[0]+1 {
		t.Errorf("disk read at factor 4 took %v, want 4 × %v", disk[1], disk[0])
	}
	if read[1]-read[0] < 2*disk[0] {
		t.Errorf("read from a 4× slowed primary took %v against %v at baseline (disk %v)", read[1], read[0], disk[0])
	}
	for _, i := range []int{2, 3} {
		if disk[i] != disk[0] || read[i] != read[0] {
			t.Errorf("factor %v: disk %v read %v, want the baseline %v / %v", factors[i], disk[i], read[i], disk[0], read[0])
		}
	}
	if err := e.c.SetOSDSlow(99, 2); err == nil {
		t.Error("SetOSDSlow accepted an unknown OSD")
	}
}
