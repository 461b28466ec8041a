package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
	"dedupstore/internal/workload"
)

// world is one simulated testbed: the paper's 4 hosts x 4 OSDs, a dedup
// store on top, and the engine that drives both. A benchmark run builds
// exactly one.
type world struct {
	seed int64
	eng  *sim.Engine
	c    *rados.Cluster
	s    *core.Store
}

func newWorld(seed int64, cost simcost.Params, mut func(*core.Config)) *world {
	eng := sim.New(seed)
	c := rados.NewTestbed(eng, cost, 4, 4)
	cfg := core.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s, err := core.Open(c, cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: core.Open: %v", err))
	}
	return &world{seed: seed, eng: eng, c: c, s: s}
}

// run executes fn as a foreground process and drives the engine until no
// foreground work is left.
func (w *world) run(fn func(p *sim.Proc)) {
	w.eng.Go("bench", fn)
	w.eng.Run()
}

// device opens a block device over the dedup store, attributed to tenant
// ("" for none). wrap, when non-nil, decorates the backend (tracing, tenant
// admission, retries).
func (w *world) device(name, tenant string, size, objectSize int64, wrap func(client.ObjectBackend) client.ObjectBackend) *client.BlockDevice {
	// The seed is part of the device name, hence of every object name, hence
	// of placement: otherwise metadata objects land on the same OSDs at every
	// seed and most simulated latencies come out as seed-independent
	// constants.
	name = fmt.Sprintf("%s-%d", name, w.seed)
	cl := w.s.Client("client." + name)
	cl.SetTenant(tenant)
	var be client.ObjectBackend = &client.DedupBackend{Client: cl}
	if wrap != nil {
		be = wrap(be)
	}
	dev, err := client.NewBlockDevice(name, size, objectSize, be)
	if err != nil {
		panic(err)
	}
	dev.SetTrace(w.c.Trace())
	dev.SetTenant(tenant)
	return dev
}

// blockTable is the materialised input: n distinct blocks of one size drawn
// from workload.BlockPool, generated before the clock starts. Ops carry an
// index into it, so memory is bounded by the number of distinct blocks, not
// by the number of ops.
type blockTable struct {
	size   int
	blocks [][]byte
}

func newBlockTable(seed int64, n, size int) *blockTable {
	bp := workload.NewBlockPool(size, seed, false)
	backing := make([]byte, n*size)
	t := &blockTable{size: size, blocks: make([][]byte, n)}
	for i := range t.blocks {
		t.blocks[i] = backing[i*size : (i+1)*size : (i+1)*size]
		bp.Block(int64(i), t.blocks[i])
	}
	return t
}

// dedupPlan returns n block ids of which dupPct percent repeat another id,
// scattered uniformly (fio's dedupe_percentage; same construction as
// workload.FIOGen's plan). Ids start at first; it returns the next free id.
func dedupPlan(rng *rand.Rand, n int, dupPct float64, first int32) ([]int32, int32) {
	uniques := int(float64(n) * (1 - dupPct/100))
	if uniques < 1 {
		uniques = 1
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = first + int32(i%uniques)
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids, first + int32(uniques)
}

// shadow is the reference model of one device: for every block-sized page,
// the table ids the page may legally hold. One id when writers never
// overlap on a page; several when an open-loop schedule had writes to the
// same page in flight together (either order is a correct outcome). An empty
// list means never written or discarded: the page reads as zeros.
type shadow struct {
	dev      *client.BlockDevice
	tab      *blockTable
	want     [][]int32
	inflight []int32  // writes to the page in flight
	version  []uint32 // bumped when a write to the page starts or ends
}

func newShadow(dev *client.BlockDevice, tab *blockTable) *shadow {
	n := int(dev.Size() / int64(tab.size))
	return &shadow{dev: dev, tab: tab, want: make([][]int32, n), inflight: make([]int32, n), version: make([]uint32, n)}
}

// begin records that a write of id to page is being issued.
func (sh *shadow) begin(page int, id int32) {
	if sh.inflight[page] == 0 {
		sh.want[page] = sh.want[page][:0]
	}
	sh.want[page] = append(sh.want[page], id)
	sh.inflight[page]++
	sh.version[page]++
}

func (sh *shadow) end(page int) {
	sh.inflight[page]--
	sh.version[page]++
}

// set records a completed write made while nothing else touches the page.
func (sh *shadow) set(page int, id int32) { sh.want[page] = append(sh.want[page][:0], id) }

func (sh *shadow) clear(page int) { sh.want[page] = sh.want[page][:0] }

// matches reports whether got is a legal content of page.
func (sh *shadow) matches(page int, got []byte) bool {
	if len(sh.want[page]) == 0 {
		for _, b := range got {
			if b != 0 {
				return false
			}
		}
		return len(got) == sh.tab.size
	}
	for _, id := range sh.want[page] {
		if bytes.Equal(got, sh.tab.blocks[id]) {
			return true
		}
	}
	return false
}

// readBack reads every page of the device and returns how many differ from
// the model.
func (sh *shadow) readBack(p *sim.Proc) (mismatches int) {
	bs := int64(sh.tab.size)
	for page := range sh.want {
		got, err := sh.dev.ReadAt(p, int64(page)*bs, bs)
		if err != nil || !sh.matches(page, got) {
			mismatches++
		}
	}
	return mismatches
}

// fill writes ids[i] to page i for every i through dev (the model's device,
// or another view of the same objects), per pages to a write, with the given
// number of concurrent writers, and records it in the model. Set-up only.
func (sh *shadow) fill(p *sim.Proc, dev *client.BlockDevice, ids []int32, writers, per int) {
	bs := sh.tab.size
	next := 0
	var sigs []*sim.Signal
	for w := 0; w < writers; w++ {
		sigs = append(sigs, p.Go("fill", func(q *sim.Proc) {
			buf := make([]byte, 0, per*bs)
			for next < len(ids) {
				first := next
				next += per
				buf = buf[:0]
				for page := first; page < next && page < len(ids); page++ {
					buf = append(buf, sh.tab.blocks[ids[page]]...)
					sh.set(page, ids[page])
				}
				if err := dev.WriteAt(q, int64(first)*int64(bs), buf); err != nil {
					panic(fmt.Sprintf("bench: prefill: %v", err))
				}
			}
		}))
	}
	sim.WaitAll(p, sigs...)
}

// leaseSettle is how long verification waits for reference intents to
// expire before reconciling (core.Config.IntentLease is 2s).
const leaseSettle = 3 * time.Second
