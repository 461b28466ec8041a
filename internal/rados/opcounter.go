package rados

import (
	"time"

	"dedupstore/internal/sim"
)

// OpCounter tracks operation rates over virtual time. The deduplication
// rate controller polls RecentIOPS to compare foreground load against its
// watermarks (§4.4.2).
type OpCounter struct {
	eng        *sim.Engine
	totalOps   int64
	totalBytes int64

	bucketLen time.Duration
	buckets   []opBucket // ring, index = (t / bucketLen) % len
}

type opBucket struct {
	epoch int64 // t / bucketLen this bucket currently represents
	ops   int64
	bytes int64
}

// NewOpCounter returns a counter with a one-second sliding window in ten
// 100ms buckets.
func NewOpCounter(eng *sim.Engine) *OpCounter {
	return &OpCounter{eng: eng, bucketLen: 100 * time.Millisecond, buckets: make([]opBucket, 10)}
}

func (oc *OpCounter) bucketFor(now sim.Time) *opBucket {
	epoch := int64(now) / int64(oc.bucketLen)
	b := &oc.buckets[epoch%int64(len(oc.buckets))]
	if b.epoch != epoch {
		b.epoch, b.ops, b.bytes = epoch, 0, 0
	}
	return b
}

// Note records one completed operation of the given payload size.
func (oc *OpCounter) Note(bytes int) {
	oc.totalOps++
	oc.totalBytes += int64(bytes)
	b := oc.bucketFor(oc.eng.Now())
	b.ops++
	b.bytes += int64(bytes)
}

// RecentIOPS reports operations per second over the trailing window.
func (oc *OpCounter) RecentIOPS() float64 {
	ops, _ := oc.recent()
	return ops
}

func (oc *OpCounter) recent() (opsPerSec, bytesPerSec float64) {
	now := int64(oc.eng.Now())
	curEpoch := now / int64(oc.bucketLen)
	var ops, bytes int64
	for i := range oc.buckets {
		b := &oc.buckets[i]
		if b.epoch > curEpoch-int64(len(oc.buckets)) && b.epoch <= curEpoch {
			ops += b.ops
			bytes += b.bytes
		}
	}
	// Average over the time actually covered: early in a run less than the
	// full ring has elapsed, and dividing by the whole window would
	// under-report the rate (leaving the §4.4.2 controller unthrottled for
	// the first second). Floor at one bucket to keep the estimate stable.
	window := float64(len(oc.buckets)) * oc.bucketLen.Seconds()
	if elapsed := time.Duration(now).Seconds(); elapsed < window {
		window = elapsed
		if min := oc.bucketLen.Seconds(); window < min {
			window = min
		}
	}
	return float64(ops) / window, float64(bytes) / window
}

// Totals returns lifetime operation and byte counts.
func (oc *OpCounter) Totals() (ops, bytes int64) { return oc.totalOps, oc.totalBytes }
