package core

import (
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// retryUnavailable retries fn with exponential backoff while the cluster
// reports transient unavailability — a crashed acting primary the heartbeat
// monitor has not yet marked down, or a PG below write quorum. Background
// maintenance (flush requeues, GC, scrub) must ride out the detection
// window rather than abort a pass or, worse, mistake "temporarily
// unreachable" for "gone". Permanent errors return immediately.
func retryUnavailable(p *sim.Proc, fn func() error) error {
	const attempts = 40
	delay := 5 * time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil || !rados.IsUnavailable(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		p.Sleep(delay)
		if delay < 320*time.Millisecond {
			delay *= 2
		}
	}
	return err
}

// retryGet is retryUnavailable for a call that returns a value.
func retryGet[T any](p *sim.Proc, fn func() (T, error)) (T, error) {
	var out T
	err := retryUnavailable(p, func() error {
		var err error
		out, err = fn()
		return err
	})
	return out, err
}
