package client

import (
	"time"

	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// RetryPolicy bounds the timeout/backoff loop a client runs when the
// cluster reports transient unavailability; permanent errors (not-found,
// validation) surface immediately.
type RetryPolicy = rados.RetryPolicy

// DefaultRetryPolicy covers a crash detected after a few seconds of
// heartbeat grace plus mark-out and remap with room to spare.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 64, Base: 5 * time.Millisecond, Max: 250 * time.Millisecond}
}

// RetryStats counts what the retry layer absorbed.
type RetryStats struct {
	Retries   int64 // individual retried attempts
	Exhausted int64 // ops that failed even after MaxAttempts
}

// RetryBackend wraps an ObjectBackend with the retry policy, making
// foreground I/O survive the down-detection window: writes that hit a dead
// primary fail fast inside the cluster and are retried here until the
// failure detector remaps the PG.
type RetryBackend struct {
	inner  ObjectBackend
	policy RetryPolicy
	stats  RetryStats
	reg    *metrics.Registry
}

// NewRetryBackend wraps inner. reg, if non-nil, receives
// client_retries_total / client_retries_exhausted_total counters.
func NewRetryBackend(inner ObjectBackend, policy RetryPolicy, reg *metrics.Registry) *RetryBackend {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	if policy.Base <= 0 {
		policy.Base = time.Millisecond
	}
	if policy.Max < policy.Base {
		policy.Max = policy.Base
	}
	return &RetryBackend{inner: inner, policy: policy, reg: reg}
}

// Stats returns the retries absorbed so far.
func (b *RetryBackend) Stats() RetryStats { return b.stats }

func (b *RetryBackend) do(p *sim.Proc, fn func() error) error {
	err := b.policy.Retry(p, fn, func() {
		b.stats.Retries++
		if b.reg != nil {
			b.reg.Counter("client_retries_total").Inc()
		}
	})
	if rados.IsUnavailable(err) {
		b.stats.Exhausted++
		if b.reg != nil {
			b.reg.Counter("client_retries_exhausted_total").Inc()
		}
	}
	return err
}

// Write implements ObjectBackend.
func (b *RetryBackend) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	return b.do(p, func() error { return b.inner.Write(p, oid, off, data) })
}

// Read implements ObjectBackend.
func (b *RetryBackend) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	var out []byte
	err := b.do(p, func() error {
		var err error
		out, err = b.inner.Read(p, oid, off, length)
		return err
	})
	return out, err
}

// Delete implements ObjectBackend.
func (b *RetryBackend) Delete(p *sim.Proc, oid string) error {
	return b.do(p, func() error { return b.inner.Delete(p, oid) })
}
