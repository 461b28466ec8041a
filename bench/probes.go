package main

import (
	"fmt"
	"runtime"
	"time"

	"dedupstore/internal/core"
	"dedupstore/internal/ec"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/gateway"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// perCall times fn over n calls and returns host nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// inProc runs fn as the only process of a fresh engine.
func inProc(fn func(p *sim.Proc)) {
	eng := sim.New(1)
	eng.Go("probe", fn)
	eng.Run()
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probes measures the P-sourced per-layer metrics: each calls one layer's
// public function directly, in a loop, on the host clock.
func probes(sh shape, seed int64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v} }

	// workload: input generation, what set-up pays per byte
	const genBytes = 16 << 20
	a0, t0 := allocated(), time.Now()
	tab := newBlockTable(seed, genBytes/sh.opBytes, sh.opBytes)
	set("workload.gen_MBps", genBytes/1e6/time.Since(t0).Seconds())
	set("workload.gen_alloc_MB", float64(allocated()-a0)/1e6)
	block := tab.blocks[0]

	// gateway: one unthrottled admission around an empty op
	inProc(func(p *sim.Proc) {
		tn, err := gateway.New(metrics.NewRegistry(), 0).Register("probe", gateway.Gold)
		if err != nil {
			panic(err)
		}
		set("gateway.admit_host_ns", perCall(50000, func(int) { tn.Do(p, int64(sh.opBytes), func(*sim.Proc) {}) }))
	})

	// core: chunk-map encode + decode at this workload's map length
	cm := &core.ChunkMap{}
	for off := 0; off < sh.objectBytes; off += chunkSize {
		cm.Upsert(core.Entry{Start: int64(off), End: int64(off + chunkSize), ChunkID: core.FingerprintID(block[:64]), Dirty: true, Gen: 1})
	}
	set("core.chunkmap_codec_host_ns", perCall(20000, func(int) {
		if _, err := core.UnmarshalChunkMap(cm.Marshal()); err != nil {
			panic(err)
		}
	}))

	// chunker: fingerprint of one chunk
	chunk := tab.blocks[0]
	if len(chunk) > chunkSize {
		chunk = chunk[:chunkSize]
	}
	set("chunker.fingerprint_host_ns_per_chunk", perCall(2000, func(int) { core.FingerprintID(chunk) })*float64(chunkSize)/float64(len(chunk)))

	// qos and sim: one uncontended scheduler submit, one park/resume pair
	inProc(func(p *sim.Proc) {
		sched := qos.NewGroup(qos.DefaultConfig()).NewScheduler(sim.NewResource("probe", 4))
		set("qos.submit_host_ns", perCall(30000, func(int) { sched.Use(p, qos.Client, time.Microsecond) }))
		set("sim.handoff_host_ns", perCall(30000, func(int) { p.Sleep(time.Microsecond) }))
	})

	// ec: encode and one-shard reconstruct of one op's bytes at 2+1
	codec, err := ec.New(2, 1)
	if err != nil {
		panic(err)
	}
	perMB := 1e6 / float64(sh.opBytes)
	set("ec.encode_host_ns_per_MB", perCall(400, func(int) {
		if _, err := codec.Encode(codec.SplitData(block)); err != nil {
			panic(err)
		}
	})*perMB)
	shards, _ := codec.Encode(codec.SplitData(block))
	set("ec.reconstruct_host_ns_per_MB", perCall(400, func(int) {
		lost := [][]byte{nil, shards[1], shards[2]}
		if err := codec.Reconstruct(lost); err != nil {
			panic(err)
		}
	})*perMB)

	// store: op-sized writes into and reads out of stripe objects
	st := store.New()
	perObject := sh.objectBytes / sh.opBytes
	key := func(i int) store.Key { return store.Key{Pool: 1, OID: fmt.Sprintf("o%d", i/perObject%64)} }
	off := func(i int) int64 { return int64(i % perObject * sh.opBytes) }
	const applies = 4096
	a0 = allocated()
	set("store.apply_host_ns_per_call", perCall(applies, func(i int) {
		if err := st.Apply(key(i), store.NewTxn().Write(off(i), tab.blocks[i%len(tab.blocks)])); err != nil {
			panic(err)
		}
	}))
	set("store.alloc_bytes_per_byte_written", float64(allocated()-a0)/float64(applies*sh.opBytes))
	set("store.read_host_ns_per_call", perCall(applies, func(i int) {
		if _, err := st.Read(key(i), off(i), int64(sh.opBytes)); err != nil {
			panic(err)
		}
	}))

	// fpindex: uncharged lookups over a table set larger than the block cache
	cfg := fpindex.DefaultConfig()
	cfg.MemtableBytes, cfg.CacheBytes = 8<<10, 16<<10
	idx := fpindex.New(cfg, fpindex.IO{})
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = core.FingerprintID([]byte(fmt.Sprint(seed, i)))
		idx.Insert(nil, keys[i], 0)
	}
	set("fpindex.lookup_host_ns", perCall(30000, func(i int) { idx.Lookup(nil, keys[i*7919%len(keys)]) }))
	return m
}
