package workload

import (
	"bytes"
	"fmt"
	"testing"

	"dedupstore/internal/chunker"
	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// ratioOf measures the dedup ratio (%) of a content stream at a chunk size.
func ratioOf(t *testing.T, blocks [][]byte, chunkSize int64) float64 {
	t.Helper()
	chk := chunker.NewFixed(chunkSize)
	seen := map[string]bool{}
	var total, unique int64
	for _, b := range blocks {
		for _, c := range chk.Split(0, b) {
			total += int64(len(c.Data))
			id := core.FingerprintID(c.Data)
			if !seen[id] {
				seen[id] = true
				unique += int64(len(c.Data))
			}
		}
	}
	return 100 * float64(total-unique) / float64(total)
}

func TestFIOGenDedupPercentage(t *testing.T) {
	for _, pct := range []float64{0, 50, 80} {
		gen := NewFIOGen(FIOConfig{BlockSize: 8 << 10, DedupPct: pct, Seed: 1})
		var blocks [][]byte
		for i := 0; i < 2000; i++ {
			blocks = append(blocks, gen.NextBlock())
		}
		got := ratioOf(t, blocks, 8<<10)
		if got < pct-4 || got > pct+4 {
			t.Errorf("DedupPct=%v: measured ratio %.1f%%", pct, got)
		}
	}
}

func TestFIOGenDeterministic(t *testing.T) {
	a := NewFIOGen(FIOConfig{BlockSize: 4096, DedupPct: 50, Seed: 9})
	b := NewFIOGen(FIOConfig{BlockSize: 4096, DedupPct: 50, Seed: 9})
	for i := 0; i < 50; i++ {
		if !bytes.Equal(a.NextBlock(), b.NextBlock()) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestSFSGenRatiosScaleWithLoad(t *testing.T) {
	// Fig. 3's property: higher load levels have higher global dedup ratios
	// (LD1 ~36%, LD3 ~81%, LD10 ~93%).
	measure := func(loads int) float64 {
		cfg := SFSConfig{Loads: loads, BytesPerLoad: 1 << 20, PageSize: 8 << 10, Seed: 5}
		gen := NewSFSGen(cfg)
		var blocks [][]byte
		extents := int(cfg.BytesPerLoad/(32<<10)) * loads
		for i := 0; i < extents; i++ {
			blocks = append(blocks, gen.Extent())
		}
		return ratioOf(t, blocks, 32<<10)
	}
	ld1, ld3, ld10 := measure(1), measure(3), measure(10)
	if !(ld1 < ld3 && ld3 < ld10) {
		t.Fatalf("ratios not increasing: LD1=%.1f LD3=%.1f LD10=%.1f", ld1, ld3, ld10)
	}
	if ld1 < 25 || ld1 > 50 {
		t.Errorf("LD1 ratio %.1f far from paper's ~36%%", ld1)
	}
	if ld10 < 85 {
		t.Errorf("LD10 ratio %.1f far from paper's ~93%%", ld10)
	}
}

func TestCloudGenRatios(t *testing.T) {
	gen := NewCloudGen(CloudConfig{Objects: 12, ObjectSize: 2 << 20, Seed: 3})
	var blocks [][]byte
	for i := 0; i < gen.Config().Objects; i++ {
		blocks = append(blocks, gen.ObjectContent(i))
	}
	r16 := ratioOf(t, blocks, 16<<10)
	r32 := ratioOf(t, blocks, 32<<10)
	r64 := ratioOf(t, blocks, 64<<10)
	// Table 2 shape: mild decline with chunk size, around 43-47%.
	if !(r16 > r32 && r32 > r64) {
		t.Fatalf("ratios not declining: %.1f / %.1f / %.1f", r16, r32, r64)
	}
	if r32 < 35 || r32 > 55 {
		t.Errorf("32K ratio %.1f far from paper's ~44.8%%", r32)
	}
	if r16-r64 > 10 {
		t.Errorf("decline %.1f too steep (paper: 46.4 -> 43.7)", r16-r64)
	}
}

func TestCloudGenDeterministic(t *testing.T) {
	a := NewCloudGen(CloudConfig{Objects: 2, ObjectSize: 1 << 20, Seed: 8})
	b := NewCloudGen(CloudConfig{Objects: 2, ObjectSize: 1 << 20, Seed: 8})
	if !bytes.Equal(a.ObjectContent(1), b.ObjectContent(1)) {
		t.Fatal("cloud generator not deterministic")
	}
}

func TestVMImagesShareOSBlocks(t *testing.T) {
	eng := sim.New(6)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "rbd", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	cfg := VMImageConfig{ImageSize: 1 << 20, BlockSize: 16 << 10, Seed: 2}
	var vols [][]byte
	run(t, eng, func(p *sim.Proc) {
		for vm := 0; vm < 3; vm++ {
			dev, err := client.NewBlockDevice(fmt.Sprintf("vm%d", vm), cfg.ImageSize, 256<<10,
				&client.RawBackend{GW: c.NewGateway(fmt.Sprintf("c%d", vm)), Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteVMImage(p, dev, cfg, vm); err != nil {
				t.Fatal(err)
			}
			data, err := dev.ReadAt(p, 0, cfg.ImageSize)
			if err != nil {
				t.Fatal(err)
			}
			vols = append(vols, data)
		}
	})
	// OS region identical across VMs; home region differs.
	osBytes := int64(float64(cfg.ImageSize)*0.12) / cfg.BlockSize * cfg.BlockSize
	if !bytes.Equal(vols[0][:osBytes], vols[1][:osBytes]) {
		t.Fatal("OS regions differ between VMs")
	}
	if bytes.Equal(vols[0][osBytes:osBytes+cfg.BlockSize], vols[1][osBytes:osBytes+cfg.BlockSize]) {
		t.Fatal("home regions identical between VMs")
	}
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	var panicked error
	eng.Go("test", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Errorf("panic: %v", r)
			}
		}()
		fn(p)
	})
	eng.Run()
	if panicked != nil {
		t.Fatal(panicked)
	}
}

func TestRunFIOAgainstRawPool(t *testing.T) {
	eng := sim.New(7)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "rbd", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 1<<20, 256<<10, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	cfg := FIOConfig{BlockSize: 8 << 10, Span: 1 << 20, Pattern: RandWrite, DedupPct: 50, Threads: 4, IODepth: 4, Ops: 200, Seed: 1}
	var res FIOResult
	run(t, eng, func(p *sim.Proc) { res = RunFIO(p, dev, cfg) })
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Recorder.Lat.Count() != 200 {
		t.Fatalf("recorded %d ops, want 200", res.Recorder.Lat.Count())
	}
	if res.Throughput() <= 0 || res.MeanLatency() <= 0 {
		t.Fatalf("degenerate metrics: %v MB/s, %v", res.Throughput(), res.MeanLatency())
	}
}

func TestRunFIOReadAfterPrefill(t *testing.T) {
	eng := sim.New(8)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "rbd", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 512<<10, 256<<10, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	cfg := FIOConfig{BlockSize: 8 << 10, Span: 512 << 10, Pattern: RandRead, Threads: 2, IODepth: 2, Ops: 100, Seed: 2}
	run(t, eng, func(p *sim.Proc) {
		if err := Prefill(p, dev, cfg); err != nil {
			t.Fatal(err)
		}
		res := RunFIO(p, dev, cfg)
		if res.Errors > 0 || res.Recorder.Lat.Count() != 100 {
			t.Fatalf("read run: %d errors, %d ops", res.Errors, res.Recorder.Lat.Count())
		}
	})
}

func TestRunSFSFixedRate(t *testing.T) {
	eng := sim.New(9)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "rbd", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 8<<20, 1<<20, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	cfg := SFSConfig{Loads: 2, BytesPerLoad: 1 << 20, OpsPerSecPerLoad: 100, Duration: 2e9, PageSize: 8 << 10, Seed: 4}
	var res SFSResult
	run(t, eng, func(p *sim.Proc) {
		if err := BuildSFSDataset(p, dev, cfg); err != nil {
			t.Fatal(err)
		}
		res = RunSFS(p, dev, cfg)
	})
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	// Fixed rate: ~100 ops/s × 2 loads × 2 s = ~400 ops.
	if res.OpsDone < 300 || res.OpsDone > 500 {
		t.Fatalf("ops done = %d, want ~400 (fixed rate)", res.OpsDone)
	}
	if iops := res.Read.IOPS(res.Elapsed) + res.Write.IOPS(res.Elapsed) + res.LogWrite.IOPS(res.Elapsed); iops < 150 || iops > 250 {
		t.Fatalf("IOPS = %.0f, want ~200", iops)
	}
}
