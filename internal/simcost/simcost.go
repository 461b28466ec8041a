// Package simcost defines the hardware cost model used by the discrete-event
// simulation: how long disk, network, and CPU operations take as a function
// of size. Defaults are calibrated to the testbed in the paper (ICDCS'18,
// §6.1): 4 servers, each with an Intel Xeon E5-2690 (12 cores), four SATA
// SSDs, and 10 GbE networking.
package simcost

import "time"

// Params holds the per-device service-time parameters. All bandwidths are in
// bytes per second of service time at the device.
type Params struct {
	// Network (10 GbE): one-way propagation + protocol latency per message,
	// plus serialization at link bandwidth.
	NetLatency   time.Duration
	NetBandwidth float64

	// SSD: fixed access latency plus per-byte transfer. Writes are journaled
	// (data written twice at WriteAmp effective amplification).
	SSDReadLatency  time.Duration
	SSDWriteLatency time.Duration
	SSDReadBW       float64
	SSDWriteBW      float64
	JournalAmp      float64

	// CPU work rates.
	HashBW float64 // SHA-256 fingerprinting
	RollBW float64 // content-defined-chunking rolling-hash scan
	ECBW   float64 // Reed-Solomon encode/decode per byte of data
	CRCBW  float64 // per-message checksumming

	// Fixed software overhead per object operation at an OSD (request
	// decode, PG lock, metadata update). Dominates small-IO latency.
	OpOverhead time.Duration

	// DiskShards is the number of internal channels an SSD serves
	// concurrently (queue depth the device sustains without queueing).
	DiskShards int
}

// Default returns parameters calibrated to the paper's testbed.
func Default() Params {
	return Params{
		NetLatency:      25 * time.Microsecond,
		NetBandwidth:    1.15e9, // ~10 GbE payload rate
		SSDReadLatency:  70 * time.Microsecond,
		SSDWriteLatency: 25 * time.Microsecond, // SSD write cache; journal makes it durable
		SSDReadBW:       520e6,
		SSDWriteBW:      450e6,
		JournalAmp:      1.35,
		HashBW:          1.4e9,
		RollBW:          450e6,
		ECBW:            2.8e9,
		CRCBW:           5e9,
		OpOverhead:      90 * time.Microsecond,
		DiskShards:      4,
	}
}

func xfer(n int, bw float64) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// NetSer is only the link-occupancy (serialization) time for n bytes: the
// component that consumes NIC capacity. Propagation (NetLatency) adds
// latency but does not occupy the link.
func (p Params) NetSer(n int) time.Duration { return xfer(n, p.NetBandwidth) }

// DiskRead is the service time for reading n bytes from the SSD.
func (p Params) DiskRead(n int) time.Duration { return p.SSDReadLatency + xfer(n, p.SSDReadBW) }

// DiskWrite is the service time for durably writing n bytes (journal
// amplification included).
func (p Params) DiskWrite(n int) time.Duration {
	amp := p.JournalAmp
	if amp < 1 {
		amp = 1
	}
	return p.SSDWriteLatency + xfer(int(float64(n)*amp), p.SSDWriteBW)
}

// Hash is the CPU time to fingerprint n bytes.
func (p Params) Hash(n int) time.Duration { return xfer(n, p.HashBW) }

// ChunkScan is the CPU time for a content-defined chunker's rolling hash to
// scan n bytes looking for boundaries. Fixed chunking pays none of this.
func (p Params) ChunkScan(n int) time.Duration { return xfer(n, p.RollBW) }

// ECEncode is the CPU time to erasure-code n bytes of data.
func (p Params) ECEncode(n int) time.Duration { return xfer(n, p.ECBW) }

// Checksum is the CPU time to checksum n bytes.
func (p Params) Checksum(n int) time.Duration { return xfer(n, p.CRCBW) }
