package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPercentileNearestRank pins the ceil-based nearest-rank definition:
// the p-th percentile is the sample at rank ceil(p/100*n). Bucketed values
// carry at most 0.8% relative error, so comparisons allow 1%.
func TestPercentileNearestRank(t *testing.T) {
	build := func(n int) *Histogram {
		h := NewHistogram()
		for i := 1; i <= n; i++ {
			h.Add(time.Duration(i) * time.Millisecond)
		}
		return h
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{1, 1, time.Millisecond},
		{1, 50, time.Millisecond},
		{1, 99, time.Millisecond},
		{1, 100, time.Millisecond},
		{2, 1, 1 * time.Millisecond},   // rank ceil(0.02) = 1
		{2, 50, 1 * time.Millisecond},  // rank ceil(1.0) = 1, not 2
		{2, 99, 2 * time.Millisecond},  // rank ceil(1.98) = 2
		{2, 100, 2 * time.Millisecond}, // rank 2
		{100, 1, 1 * time.Millisecond}, // rank 1
		{100, 50, 50 * time.Millisecond},
		{100, 99, 99 * time.Millisecond},
		{100, 100, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		h := build(tc.n)
		got := h.Percentile(tc.p)
		diff := got - tc.want
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*float64(tc.want) {
			t.Errorf("n=%d p=%g: got %v, want %v (±1%%)", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestPercentileClampedToObserved verifies quantiles never report a value
// outside the exact observed [min, max] even when the bucket midpoint would.
func TestPercentileClampedToObserved(t *testing.T) {
	h := NewHistogram()
	v := 1000001 * time.Nanosecond // deliberately off any bucket midpoint
	h.Add(v)
	h.Add(v)
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != v {
			t.Errorf("p%g = %v, want exactly %v (min==max)", p, got, v)
		}
	}
}

// TestBucketGeometry checks the log-bucket mapping at power-of-two
// boundaries: indexes stay continuous, every sample lands inside its
// bucket's bounds, and the midpoint error is bounded by the sub-bucket
// width (≤ 1/128 relative for values ≥ 64).
func TestBucketGeometry(t *testing.T) {
	// Continuity across the exact-bucket / log-bucket seam and the first
	// power-of-two doublings.
	for d := int64(1); d < 10000; d++ {
		idx, prev := bucketIdx(d), bucketIdx(d-1)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucketIdx(%d)=%d jumps from bucketIdx(%d)=%d", d, idx, d-1, prev)
		}
		if up := bucketUpper(idx); d >= up {
			t.Fatalf("d=%d >= bucketUpper(%d)=%d", d, idx, up)
		}
		if idx > 0 {
			if up := bucketUpper(idx - 1); d < up {
				t.Fatalf("d=%d < bucketUpper(%d)=%d: buckets overlap", d, idx-1, up)
			}
		}
	}
	// Spot-check the seam values.
	for _, tc := range []struct{ d, idx int64 }{
		{63, 63}, {64, 64}, {127, 127}, {128, 128}, {255, 191}, {256, 192},
	} {
		if got := bucketIdx(tc.d); int64(got) != tc.idx {
			t.Errorf("bucketIdx(%d) = %d, want %d", tc.d, got, tc.idx)
		}
	}
	// Midpoint relative error stays under 1/128 for large values.
	for _, d := range []int64{64, 65, 127, 128, 1000, 4095, 4096, 1e6, 1e9, 1e12} {
		mid := bucketMid(bucketIdx(d))
		diff := mid - d
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > float64(d)/128 {
			t.Errorf("bucketMid(bucketIdx(%d)) = %d: error %d exceeds 1/128", d, mid, diff)
		}
	}
}

// TestHistogramBucketsCumulative verifies Buckets() covers every sample
// exactly once and is ordered, which Dump relies on for the Prometheus
// cumulative form.
func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	var total int64
	var prev time.Duration = -1
	for _, b := range h.Buckets() {
		if b.Le <= prev {
			t.Fatalf("bucket bounds not ascending: %v after %v", b.Le, prev)
		}
		if b.Count <= 0 {
			t.Fatalf("empty bucket emitted: %+v", b)
		}
		prev = b.Le
		total += b.Count
	}
	if total != 1000 {
		t.Fatalf("bucket counts sum to %d, want 1000", total)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("ops_total").Inc()
				reg.Gauge("depth").Add(1)
				reg.Histogram("lat").Add(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("ops_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("depth").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5 (negative adds ignored)", c.Value())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z").Add(time.Second)
	if reg.Dump() != "" {
		t.Fatal("nil registry Dump not empty")
	}
	var unresolved *Counter
	if unresolved.Value() != 0 {
		t.Fatal("nil counter does not read 0")
	}
}

func TestRegistryDumpFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("writes_total").Add(7)
	reg.Gauge("queue_depth").Set(3)
	reg.Histogram("op.latency/ms").Add(time.Second) // name needs sanitizing
	out := reg.Dump()
	for _, want := range []string{
		"# TYPE writes_total counter\nwrites_total 7\n",
		"# TYPE queue_depth gauge\nqueue_depth 3\n",
		"# TYPE op_latency_ms histogram\n",
		"op_latency_ms_bucket{le=\"+Inf\"} 1\n",
		"op_latency_ms_sum 1\n",
		"op_latency_ms_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the +Inf count.
	reg2 := NewRegistry()
	h := reg2.Histogram("lat")
	for i := 1; i <= 10; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	lines := strings.Split(reg2.Dump(), "\n")
	var last int64 = -1
	for _, ln := range lines {
		if strings.HasPrefix(ln, "lat_bucket{") {
			var cum int64
			if _, err := fmt.Sscanf(ln[strings.LastIndex(ln, " ")+1:], "%d", &cum); err != nil {
				t.Fatalf("unparseable bucket line %q", ln)
			}
			if cum < last {
				t.Fatalf("bucket counts not cumulative: %q after %d", ln, last)
			}
			last = cum
		}
	}
	if last != 10 {
		t.Fatalf("final cumulative bucket = %d, want 10", last)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"rados_op_total:rados.write": "rados_op_total:rados_write",
		"9lives":                     "_9lives",
		"a-b c":                      "a_b_c",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
