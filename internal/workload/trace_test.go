package workload

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dedupstore/internal/client"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

func TestParseTrace(t *testing.T) {
	in := `# comment
100 W 0 4096 42
250 R 0 4096

300 w 8192 4096
`
	ops, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
	if !ops[0].Write || ops[0].Seed != 42 || ops[0].Length != 4096 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Write {
		t.Fatal("op1 should be a read")
	}
	if !ops[2].Write || ops[2].Seed == 0 {
		t.Fatalf("op2 = %+v (lowercase op, default seed)", ops[2])
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, bad := range []string{
		"100 X 0 4096",              // unknown op
		"abc W 0 4096",              // bad ts
		"100 W -1 4096",             // negative offset
		"100 W 0 0",                 // zero length
		"100 W",                     // too few fields
		"100 W 0 4096 x",            // bad seed
		"-1 W 0 4096",               // negative timestamp
		"9223372036854776 W 0 4096", // microseconds overflow time.Duration
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	ops := SynthesizeTrace(1<<20, 8<<10, 50, 50, 7)
	var buf bytes.Buffer
	if err := FormatTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("%d != %d ops", len(got), len(ops))
	}
	for i := range ops {
		// Reads don't round-trip their seed (it is write-only).
		want := ops[i]
		if !want.Write {
			want.Seed = 0
		}
		if got[i] != want {
			t.Fatalf("op %d: %+v != %+v", i, got[i], want)
		}
	}
}

func TestReplayTrace(t *testing.T) {
	eng := sim.New(5)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "p", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 1<<20, 256<<10, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	ops := SynthesizeTrace(1<<20, 8<<10, 200, 50, 9)
	var res TraceResult
	run(t, eng, func(p *sim.Proc) { res = ReplayTrace(p, dev, ops, 1.0, 8) })
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Reads.Lat.Count()+res.Writes.Lat.Count() != 200 {
		t.Fatalf("replayed %d+%d ops", res.Reads.Lat.Count(), res.Writes.Lat.Count())
	}
	// Open-loop pacing: elapsed must cover the trace span.
	if res.Elapsed < sim.Time(ops[len(ops)-1].At) {
		t.Fatalf("elapsed %v shorter than trace span %v", res.Elapsed, ops[len(ops)-1].At)
	}
}

// TestReplayTraceRefusesOffDeviceExtent: an op past the device end counts as
// an error before its buffer is allocated, so a write longer than the device
// costs no memory however long the trace says it is.
func TestReplayTraceRefusesOffDeviceExtent(t *testing.T) {
	eng := sim.New(7)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "p", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 1<<20, 256<<10, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	ops, err := ParseTrace(strings.NewReader("0 W 0 67108864\n0 R 1048576 1\n0 W 0 4096\n"))
	if err != nil {
		t.Fatal(err)
	}
	var res TraceResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(t, eng, func(p *sim.Proc) { res = ReplayTrace(p, dev, ops, 0, 1) })
	runtime.ReadMemStats(&after)
	if res.Errors != 2 || res.Writes.Lat.Count() != 1 || res.Reads.Lat.Count() != 0 {
		t.Errorf("errors %d, writes %d, reads %d; want the two off-device ops refused and the write replayed",
			res.Errors, res.Writes.Lat.Count(), res.Reads.Lat.Count())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("replay allocated %d bytes: the off-device write's buffer was made", grew)
	}
}

// FuzzParseTrace: whatever ParseTrace accepts, FormatTrace writes back in a
// form ParseTrace reads as the same ops.
func FuzzParseTrace(f *testing.F) {
	f.Add("100 W 0 4096 7\n250 r 8192 4096\n")
	f.Add("# comment\n\n0 w 4096 8192\n")
	f.Add("9223372036854 W 0 1 -5 extra\n")
	f.Fuzz(func(t *testing.T, in string) {
		ops, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := FormatTrace(&buf, ops); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil || !slices.Equal(again, ops) {
			t.Fatalf("%q: parsed %+v, formatted %q, re-parsed %+v, %v", in, ops, buf.String(), again, err)
		}
	})
}

func TestReplayTraceContentDeterminism(t *testing.T) {
	// Two writes with the same seed produce identical content: replaying a
	// trace preserves its duplication structure.
	eng := sim.New(6)
	c := rados.NewTestbed(eng, simcost.Default(), 4, 4)
	pool, _ := c.CreatePool(rados.PoolConfig{Name: "p", PGNum: 64, Redundancy: rados.ReplicatedN(2)})
	dev, _ := client.NewBlockDevice("img", 1<<20, 256<<10, &client.RawBackend{GW: c.NewGateway("cl"), Pool: pool})
	ops := []TraceOp{
		{At: 0, Write: true, Offset: 0, Length: 8192, Seed: 123},
		{At: 100, Write: true, Offset: 8192, Length: 8192, Seed: 123},
	}
	run(t, eng, func(p *sim.Proc) { ReplayTrace(p, dev, ops, 0, 2) })
	run(t, eng, func(p *sim.Proc) {
		a, err1 := dev.ReadAt(p, 0, 8192)
		b, err2 := dev.ReadAt(p, 8192, 8192)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Error("same-seed writes differ")
		}
	})
}
