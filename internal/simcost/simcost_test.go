package simcost

import (
	"testing"
	"time"
)

func TestDefaultSane(t *testing.T) {
	p := Default()
	if p.NetBandwidth <= 0 || p.SSDReadBW <= 0 || p.SSDWriteBW <= 0 || p.HashBW <= 0 {
		t.Fatal("default has zero rates")
	}
	if p.DiskShards < 1 {
		t.Fatal("disk shards < 1")
	}
}

func TestTransferScalesWithSize(t *testing.T) {
	p := Default()
	small, big := p.NetSer(1<<10), p.NetSer(1<<20)
	if big <= small {
		t.Fatal("network transfer not size-dependent")
	}
	if p.NetSer(0) != 0 {
		t.Fatal("zero-byte serialization should be free")
	}
}

func TestDiskCosts(t *testing.T) {
	p := Default()
	if p.DiskRead(0) != p.SSDReadLatency {
		t.Fatal("zero read should cost access latency only")
	}
	if p.DiskWrite(1<<20) <= p.DiskRead(1<<20) {
		t.Fatal("journaled write should cost more than read at large sizes")
	}
	// Journal amplification below 1 clamps to 1.
	q := p
	q.JournalAmp = 0.5
	if q.DiskWrite(1<<20) > p.DiskWrite(1<<20) {
		t.Fatal("amp clamp failed")
	}
}

func TestCPUCosts(t *testing.T) {
	p := Default()
	if p.Hash(1<<20) <= 0 || p.ECEncode(1<<20) <= 0 || p.Checksum(1<<20) <= 0 {
		t.Fatal("CPU costs must be positive for 1MB")
	}
	// SHA-256 fingerprinting is slower than CRC checksums.
	if p.Hash(1<<20) <= p.Checksum(1<<20) {
		t.Fatal("hash should cost more than checksum")
	}
	if p.Hash(-5) != 0 {
		t.Fatal("negative size should cost nothing")
	}
}

func TestCostsAreLinear(t *testing.T) {
	p := Default()
	a := p.Hash(1 << 20)
	b := p.Hash(2 << 20)
	if b < a*2-time.Microsecond || b > a*2+time.Microsecond {
		t.Fatalf("hash not linear: %v vs %v", a, b)
	}
}
