package core

import (
	"time"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
)

// maintenanceRetry is how background maintenance (flush requeues, GC,
// scrub) rides out the detection window of a crashed OSD rather than abort a
// pass or, worse, mistake "temporarily unreachable" for "gone".
var maintenanceRetry = rados.RetryPolicy{MaxAttempts: 40, Base: 5 * time.Millisecond, Max: 320 * time.Millisecond}

// retryUnavailable retries fn under maintenanceRetry while the cluster
// reports transient unavailability. Permanent errors return immediately.
func retryUnavailable(p *sim.Proc, fn func() error) error {
	return maintenanceRetry.Retry(p, fn, nil)
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
