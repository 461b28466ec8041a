// Package gateway is the multi-tenant serving front end: a coordinator
// through which many simulated tenants — each with an identity, an SLO
// class, and its own workload mix — share one cluster. Every tenant op first
// clears its tenant's token bucket (rate + burst on simulated time — the
// non-work-conserving cap that holds a noisy neighbor to its contract even
// when the cluster is idle), then the tenant's inflight cap and, optionally,
// the coordinator's bounded service slots in weighted start-time-fair order.
// Both mechanisms are internal/qos's: the bucket is a qos.Limiter, the caps
// and slots a qos.FairQueue with one flow per tenant. Whatever is admitted
// flows into the cluster as ordinary client-class I/O, where the per-OSD
// qos.Scheduler arbitrates it against background dedup, recovery, scrub and
// GC traffic. Tenant identity rides along on trace spans and per-tenant
// registry instruments, so every op in the cluster is attributable to the
// tenant that issued it.
package gateway

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dedupstore/internal/client"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/sim"
)

// SLO is a tenant's service contract. The zero value is unthrottled: no
// rate cap, no inflight cap, default weight — "best effort with full
// priority", which is also what disabling isolation means.
type SLO struct {
	// Class is the display name ("gold", "silver", "bronze", "custom").
	Class string
	// Weight is the tenant's share when coordinator service slots are
	// contended (values below 1 are treated as 1, so no tenant starves on
	// slots). It plays the same role tenant-to-tenant that qos class
	// weights play class-to-class inside the cluster.
	Weight int64
	// RateBps is the token-bucket refill in bytes per second; 0 with Burst
	// 0 means no bucket at all. RateBps 0 with Burst > 0 is a hard
	// allowance: the tenant may write Burst bytes ever, then starves.
	RateBps int64
	// Burst is the bucket capacity in bytes (defaults to RateBps/8 when a
	// rate is set but no burst given).
	Burst int64
	// MaxInflight caps the tenant's concurrent ops (0 = unlimited).
	MaxInflight int
}

// Throttled reports whether the SLO carries any admission constraint.
func (s SLO) Throttled() bool { return s.RateBps > 0 || s.Burst > 0 || s.MaxInflight > 0 }

// The built-in SLO classes. Gold is unthrottled and carries the dominant
// slot weight; silver and bronze trade progressively lower rate caps and
// concurrency for a smaller share. Rates are sized for the simulation's
// ~1000:1 scaled datasets.
var (
	Gold   = SLO{Class: "gold", Weight: 1000}
	Silver = SLO{Class: "silver", Weight: 250, RateBps: 128 << 20, Burst: 16 << 20, MaxInflight: 64}
	Bronze = SLO{Class: "bronze", Weight: 100, RateBps: 32 << 20, Burst: 4 << 20, MaxInflight: 16}
)

// ParseSLO parses an SLO spec: a class name ("gold", "silver", "bronze"),
// or a comma-separated custom spec of key=value fields — weight=N,
// rate=SIZE (per second), burst=SIZE, inflight=N, class=NAME — where SIZE
// accepts K/M/G binary suffixes ("rate=32M,burst=4M,inflight=16").
func ParseSLO(spec string) (SLO, error) {
	switch strings.TrimSpace(strings.ToLower(spec)) {
	case "gold":
		return Gold, nil
	case "silver":
		return Silver, nil
	case "bronze":
		return Bronze, nil
	case "unthrottled":
		return SLO{Class: "custom"}, nil
	case "":
		return SLO{}, fmt.Errorf("gateway: empty SLO spec")
	}
	slo := SLO{Class: "custom"}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(field, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return SLO{}, fmt.Errorf("gateway: bad SLO field %q (want key=value)", field)
		}
		switch key {
		case "weight":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return SLO{}, fmt.Errorf("gateway: bad weight %q", val)
			}
			slo.Weight = n
		case "rate":
			n, err := parseSize(val)
			if err != nil {
				return SLO{}, fmt.Errorf("gateway: bad rate %q: %v", val, err)
			}
			slo.RateBps = n
		case "burst":
			n, err := parseSize(val)
			if err != nil {
				return SLO{}, fmt.Errorf("gateway: bad burst %q: %v", val, err)
			}
			slo.Burst = n
		case "inflight":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return SLO{}, fmt.Errorf("gateway: bad inflight %q", val)
			}
			slo.MaxInflight = n
		case "class":
			slo.Class = val
		default:
			return SLO{}, fmt.Errorf("gateway: unknown SLO field %q", key)
		}
	}
	if slo.RateBps > 0 && slo.Burst == 0 {
		slo.Burst = slo.RateBps / 8
		if slo.Burst < 1 {
			slo.Burst = 1
		}
	}
	return slo, nil
}

// String renders the SLO as a spec ParseSLO accepts (built-in classes round
// down to their names).
func (s SLO) String() string {
	for _, preset := range []SLO{Gold, Silver, Bronze} {
		if s == preset {
			return s.Class
		}
	}
	parts := []string{}
	if s.Class != "" && s.Class != "custom" {
		parts = append(parts, "class="+s.Class)
	}
	if s.Weight > 0 {
		parts = append(parts, fmt.Sprintf("weight=%d", s.Weight))
	}
	if s.RateBps > 0 {
		parts = append(parts, fmt.Sprintf("rate=%d", s.RateBps))
	}
	if s.Burst > 0 {
		parts = append(parts, fmt.Sprintf("burst=%d", s.Burst))
	}
	if s.MaxInflight > 0 {
		parts = append(parts, fmt.Sprintf("inflight=%d", s.MaxInflight))
	}
	if len(parts) == 0 {
		return "unthrottled"
	}
	return strings.Join(parts, ",")
}

// parseSize parses a non-negative byte count with optional K/M/G binary
// suffix (case-insensitive, optional trailing "B" or "iB").
func parseSize(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	shift := 0
	switch {
	case strings.HasSuffix(t, "K"):
		shift, t = 10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		shift, t = 20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		shift, t = 30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("size out of range")
	}
	return n << shift, nil
}

// Coordinator is the serving front end: it owns the tenant registry and the
// fair queue every admitted op passes. The queue's optional slots model the
// front end's own capacity — request handler concurrency — granted across
// tenants in start-time-fair order with cost = bytes and weight = SLO
// weight; its per-flow depth cap is each tenant's MaxInflight. It reports
// nothing into the cluster registry: tenant accounting does.
type Coordinator struct {
	reg *metrics.Registry
	fq  qos.FairQueue

	tenants map[string]*Tenant
	order   []*Tenant // registration order = flow order, for stable reporting and ties
}

// New returns a coordinator publishing per-tenant instruments into reg
// (typically the cluster registry, so DumpMetrics carries them). slots
// bounds concurrently admitted ops across all tenants; 0 leaves the slot
// layer inactive and admission is token buckets + inflight caps only.
func New(reg *metrics.Registry, slots int) *Coordinator {
	c := &Coordinator{reg: reg, tenants: make(map[string]*Tenant)}
	c.fq = qos.NewFairQueue(slots)
	return c
}

// Tenant is one registered identity: its SLO, token bucket, fair-queue flow
// and attribution instruments.
type Tenant struct {
	c     *Coordinator
	name  string
	slo   SLO
	limit qos.Limiter // the zero Limiter when the SLO sets no rate/burst
	flow  int         // the tenant's flow in the coordinator's fair queue

	ops       *metrics.Counter
	bytes     *metrics.Counter
	throttled *metrics.Counter
	queueWait *metrics.Counter // microseconds of admission wait
	lat       *metrics.Histogram

	waitTotal time.Duration
}

// Register adds a tenant under the given SLO. Names must be unique and
// non-empty; the metric family is tenant_<sanitized-name>_*.
func (c *Coordinator) Register(name string, slo SLO) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("gateway: empty tenant name")
	}
	if _, ok := c.tenants[name]; ok {
		return nil, fmt.Errorf("gateway: tenant %q already registered", name)
	}
	if slo.Class == "" {
		slo.Class = "custom"
	}
	t := &Tenant{c: c, name: name, slo: slo, flow: c.fq.AddFlow(slo.Weight)}
	if slo.RateBps > 0 || slo.Burst > 0 {
		t.limit = qos.NewLimiter(slo.RateBps, time.Second, slo.Burst)
	}
	id := sanitizeMetricName(name)
	t.ops = c.reg.Counter("tenant_" + id + "_ops_total")
	t.bytes = c.reg.Counter("tenant_" + id + "_bytes_total")
	t.throttled = c.reg.Counter("tenant_" + id + "_throttled_total")
	t.queueWait = c.reg.Counter("tenant_" + id + "_queue_wait_us_total")
	t.lat = c.reg.Histogram("tenant_" + id + "_latency")
	c.tenants[name] = t
	c.order = append(c.order, t)
	return t, nil
}

// Tenant returns a registered tenant by name.
func (c *Coordinator) Tenant(name string) (*Tenant, bool) {
	t, ok := c.tenants[name]
	return t, ok
}

// Tenants returns the registered tenants in registration order.
func (c *Coordinator) Tenants() []*Tenant { return append([]*Tenant(nil), c.order...) }

// sanitizeMetricName maps an arbitrary tenant name onto the registry's
// identifier alphabet.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Name returns the tenant's identity.
func (t *Tenant) Name() string { return t.name }

// SLO returns the tenant's contract.
func (t *Tenant) SLO() SLO { return t.slo }

// Do admits one tenant operation carrying nbytes of payload and runs op
// once admission clears: the token bucket is charged nbytes, then the
// tenant's inflight cap and the coordinator's slots (if bounded) are
// acquired, and the op's full latency — admission wait included, since that
// is what the tenant observes — lands in the tenant's histogram.
func (t *Tenant) Do(p *sim.Proc, nbytes int64, op func(q *sim.Proc)) {
	start := p.Now()
	t.limit.Take(p, nbytes)
	t.c.fq.Acquire(p, t.flow, nbytes, t.slo.MaxInflight)
	wait := (p.Now() - start).Duration()
	if wait > 0 {
		t.throttled.Inc()
		t.queueWait.Add(wait.Microseconds())
		t.waitTotal += wait
	}

	op(p)

	t.c.fq.Release(p, t.flow)
	t.ops.Inc()
	t.bytes.Add(nbytes)
	t.lat.Add((p.Now() - start).Duration())
}

// Backend wraps an ObjectBackend so every op is admitted under the
// tenant's SLO before it reaches the cluster: writes charge the bucket
// their payload, reads their requested length, deletes a single token.
func (t *Tenant) Backend(inner client.ObjectBackend) client.ObjectBackend {
	return &tenantBackend{t: t, inner: inner}
}

type tenantBackend struct {
	t     *Tenant
	inner client.ObjectBackend
}

func (b *tenantBackend) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	var err error
	b.t.Do(p, int64(len(data)), func(q *sim.Proc) { err = b.inner.Write(q, oid, off, data) })
	return err
}

func (b *tenantBackend) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	charge := length
	if charge < 0 {
		charge = 1 // length unknown until served; charge a minimum token
	}
	var data []byte
	var err error
	b.t.Do(p, charge, func(q *sim.Proc) { data, err = b.inner.Read(q, oid, off, length) })
	return data, err
}

func (b *tenantBackend) Delete(p *sim.Proc, oid string) error {
	var err error
	b.t.Do(p, 1, func(q *sim.Proc) { err = b.inner.Delete(q, oid) })
	return err
}

// TenantStats is one tenant's aggregated accounting, for tables and tests.
type TenantStats struct {
	Name        string
	Class       string
	Weight      int64
	RateBps     int64
	Burst       int64
	MaxInflight int
	Ops         int64
	Bytes       int64
	Throttled   int64
	QueueWait   time.Duration
	MeanLat     time.Duration
	P99Lat      time.Duration
}

// Stats reports every tenant's accounting in registration order.
func (c *Coordinator) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(c.order))
	for _, t := range c.order {
		out = append(out, t.Stats())
	}
	return out
}

// Stats reports this tenant's accounting.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		Name: t.name, Class: t.slo.Class, Weight: max(t.slo.Weight, 1),
		RateBps: t.slo.RateBps, Burst: t.slo.Burst, MaxInflight: t.slo.MaxInflight,
		Ops: t.ops.Value(), Bytes: t.bytes.Value(), Throttled: t.throttled.Value(),
		QueueWait: t.waitTotal,
	}
	if t.lat.Count() > 0 {
		st.MeanLat = t.lat.Mean()
		st.P99Lat = t.lat.Percentile(99)
	}
	return st
}

// ClassTotals aggregates tenant accounting per SLO class, ordered by class
// name — the view the many-tenant experiment reports.
type ClassTotals struct {
	Class     string
	Tenants   int
	Ops       int64
	Bytes     int64
	Throttled int64
	QueueWait time.Duration
}

// Totals aggregates per-class accounting across all tenants.
func (c *Coordinator) Totals() []ClassTotals {
	byClass := map[string]*ClassTotals{}
	var names []string
	for _, t := range c.order {
		ct, ok := byClass[t.slo.Class]
		if !ok {
			ct = &ClassTotals{Class: t.slo.Class}
			byClass[t.slo.Class] = ct
			names = append(names, t.slo.Class)
		}
		ct.Tenants++
		ct.Ops += t.ops.Value()
		ct.Bytes += t.bytes.Value()
		ct.Throttled += t.throttled.Value()
		ct.QueueWait += t.waitTotal
	}
	sort.Strings(names)
	out := make([]ClassTotals, 0, len(names))
	for _, n := range names {
		out = append(out, *byClass[n])
	}
	return out
}
