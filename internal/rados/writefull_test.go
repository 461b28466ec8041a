package rados

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dedupstore/internal/sim"
)

// TestWriteFullCopiesOnce: WriteFull leaves data the caller's and copies it
// once. A replicated pool's replicas share one clone; an erasure pool's
// shards — the stripe split plus parity, 1.5 x for 2+1 — are the only copy,
// where a clone made first would add 1 x.
func TestWriteFullCopiesOnce(t *testing.T) {
	const objs, size = 64, 64 << 10
	for _, tc := range []struct {
		name  string
		pool  func(e *testEnv) *Pool
		bound float64
	}{
		{"replicated 2", func(e *testEnv) *Pool { return e.rep }, 1.5},
		{"EC 2+1", func(e *testEnv) *Pool { return e.ecp }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			pool := tc.pool(e)
			bufs := make([][]byte, objs)
			for i := range bufs {
				bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
			}
			e.run(t, func(p *sim.Proc) {
				// A first write builds the pool's codec and the cluster's
				// per-PG state before the measured ones.
				if err := e.gw.WriteFull(p, pool, "warm", bufs[0]); err != nil {
					e.fail(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i, b := range bufs {
					if err := e.gw.WriteFull(p, pool, fmt.Sprint("obj", i), b); err != nil {
						e.fail(err)
					}
				}
				runtime.ReadMemStats(&after)
				perByte := float64(after.TotalAlloc-before.TotalAlloc) / objs / size
				t.Logf("%.3f bytes allocated per byte written", perByte)
				if perByte >= tc.bound {
					t.Errorf("WriteFull allocates %.2f x its bytes, want under %.1f x", perByte, tc.bound)
				}
				for i, b := range bufs {
					clear(b) // the caller reuses its buffer
					got, err := e.gw.Read(p, pool, fmt.Sprint("obj", i), 0, -1)
					if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, size)) {
						t.Fatalf("obj%d after the caller reused its buffer: err %v, bytes changed", i, err)
					}
				}
			})
		})
	}
}
