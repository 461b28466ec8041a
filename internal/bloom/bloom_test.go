package bloom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.ContainsString(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.ContainsString(fmt.Sprintf("other-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestEmptyContainsNothing(t *testing.T) {
	f := New(1024, 4)
	if f.ContainsString("anything") {
		t.Fatal("empty filter claims membership")
	}
}

func TestReset(t *testing.T) {
	f := New(1024, 4)
	f.AddString("a")
	f.Reset()
	if f.ContainsString("a") || f.Count() != 0 {
		t.Fatal("reset did not clear filter")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	for i := 0; i < 100; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() {
		t.Fatalf("count %d != %d", g.Count(), f.Count())
	}
	for i := 0; i < 100; i++ {
		if !g.ContainsString(fmt.Sprintf("k%d", i)) {
			t.Fatalf("lost key k%d after round trip", i)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte("short")); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	f := New(128, 3)
	b := f.Marshal()
	if _, err := Unmarshal(b[:len(b)-1]); err != ErrCorrupt {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}

func TestUnmarshalOverflowHeader(t *testing.T) {
	// m ≥ 2^64−63 used to wrap the words computation to 0, so a 24-byte
	// payload passed the length check and the first Contains panicked with an
	// out-of-range index.
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], math.MaxUint64) // m
	binary.LittleEndian.PutUint64(buf[8:], 3)              // k
	binary.LittleEndian.PutUint64(buf[16:], 1)             // n
	f, err := Unmarshal(buf)
	if err != ErrCorrupt {
		t.Fatalf("overflowing m: err = %v, want ErrCorrupt", err)
	}
	if f != nil {
		f.ContainsString("boom") // would panic before the fix
	}

	// An absurd hash-function count is equally bogus even with a sane m.
	g := New(128, 3)
	b := g.Marshal()
	binary.LittleEndian.PutUint64(b[8:], 100000)
	if _, err := Unmarshal(b); err != ErrCorrupt {
		t.Fatalf("absurd k: err = %v, want ErrCorrupt", err)
	}
}

func TestDegenerateSizes(t *testing.T) {
	f := New(0, 0) // clamped internally
	f.AddString("x")
	if !f.ContainsString("x") {
		t.Fatal("clamped filter lost key")
	}
	g := NewWithEstimates(0, -1)
	g.AddString("y")
	if !g.ContainsString("y") {
		t.Fatal("clamped estimate filter lost key")
	}
}

func TestQuickAddedAlwaysContained(t *testing.T) {
	f := NewWithEstimates(4096, 0.01)
	prop := func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatedFPGrows(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	before := f.EstimatedFP()
	for i := 0; i < 100; i++ {
		f.AddString(fmt.Sprintf("k%d", i))
	}
	if after := f.EstimatedFP(); after <= before {
		t.Fatalf("EstimatedFP did not grow: %v -> %v", before, after)
	}
}

// FuzzBloomUnmarshal: stored filter bytes never panic the decoder, and a
// filter it accepts answers Contains without panicking and marshals back to
// the very bytes it came from.
func FuzzBloomUnmarshal(f *testing.F) {
	f.Add([]byte("short"))
	f.Add(New(128, 3).Marshal())
	g := NewWithEstimates(16, 0.01)
	g.AddString("k")
	f.Add(g.Marshal())
	f.Fuzz(func(t *testing.T, raw []byte) {
		flt, err := Unmarshal(raw)
		if err != nil {
			return
		}
		flt.Contains(raw)
		flt.ContainsString("k")
		if got := flt.Marshal(); !bytes.Equal(got, raw) {
			t.Fatalf("round trip changed the bytes:\n%x\n%x", raw, got)
		}
	})
}
