// Package dedupstore is a from-scratch reproduction of "Design of Global
// Data Deduplication for a Scale-out Distributed Storage System" (Oh et al.,
// ICDCS 2018): a Ceph-like decentralized object store with the paper's
// global deduplication layered on top — double hashing (the chunk
// fingerprint IS the chunk-pool object ID, so placement replaces the
// fingerprint index), self-contained objects (all dedup metadata rides
// inside ordinary objects, so replication/EC/recovery cover it for free),
// and post-processing deduplication with watermark rate control and
// HitSet-based hot-object caching.
//
// Everything runs on a deterministic discrete-event simulation calibrated
// to the paper's testbed, so experiments are exactly reproducible. The
// typical flow:
//
//	world := dedupstore.NewWorld(42)                  // 4 hosts × 4 OSDs
//	store, _ := dedupstore.OpenStore(world.Cluster, dedupstore.DefaultConfig())
//	store.StartEngine()
//	client := store.Client("app")
//	world.Run(func(p *dedupstore.Proc) {
//	    client.Write(p, "my-object", 0, data)
//	    got, _ := client.Read(p, "my-object", 0, -1)
//	    _ = got
//	})
package dedupstore

import (
	"dedupstore/internal/chaos"
	"dedupstore/internal/client"
	"dedupstore/internal/core"
	"dedupstore/internal/gateway"
	"dedupstore/internal/metrics"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/simcost"
)

// Re-exported core types: the public API surface.
type (
	// Proc is a simulated process; all blocking calls take one.
	Proc = sim.Proc
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine
	// SimTime is a point on the virtual clock.
	SimTime = sim.Time
	// Cluster is the scale-out object-store substrate.
	Cluster = rados.Cluster
	// Pool is an object pool with its own redundancy scheme.
	Pool = rados.Pool
	// Gateway is a raw (non-dedup) client session.
	Gateway = rados.Gateway
	// Store is the deduplicating object store (the paper's design).
	Store = core.Store
	// Client is a dedup store session.
	Client = core.Client
	// Config configures the dedup store.
	Config = core.Config
	// TieringConfig tunes adaptive redundancy (Config.Tiering).
	TieringConfig = core.TieringConfig
	// TierStats counts the tiering subsystem's work (Store.TierStats).
	TierStats = core.TierStats
	// TierCensus is the per-temperature population snapshot of the last
	// policy pass (Store.TierCensus).
	TierCensus = core.TierCensus
	// BlockDevice is an RBD-like virtual disk striped over objects.
	BlockDevice = client.BlockDevice
	// CostParams is the simulated-hardware cost model.
	CostParams = simcost.Params
	// Registry is the cluster-wide metric registry (Cluster.Metrics).
	Registry = metrics.Registry
	// TraceSink collects per-op trace spans (Cluster.Trace).
	TraceSink = metrics.TraceSink
	// Span is one traced operation with its queue-wait/service breakdown.
	Span = metrics.Span
	// Monitor is the heartbeat failure detector (Cluster.StartMonitor).
	Monitor = rados.Monitor
	// MonitorConfig tunes heartbeat detection and auto-recovery.
	MonitorConfig = rados.MonitorConfig
	// MonEvent is one availability-timeline entry from the monitor.
	MonEvent = rados.MonEvent
	// FaultInjector executes deterministic fault schedules (chaos.NewInjector).
	FaultInjector = chaos.Injector
	// Fault is one scheduled fault (crash, restart, slow disk/NIC).
	Fault = chaos.Fault
	// FaultSchedule is an ordered set of faults.
	FaultSchedule = chaos.Schedule
	// RetryBackend wraps an object backend with timeout/backoff retries.
	RetryBackend = client.RetryBackend
	// RetryPolicy bounds a RetryBackend's retry loop.
	RetryPolicy = client.RetryPolicy
	// TenantCoordinator is the multi-tenant serving front end
	// (NewTenantCoordinator): tenants share one cluster through per-tenant
	// token-bucket admission.
	TenantCoordinator = gateway.Coordinator
	// Tenant is one registered tenant identity with its SLO and accounting.
	Tenant = gateway.Tenant
	// SLO is a tenant's service contract (rate, burst, inflight, weight).
	SLO = gateway.SLO
	// TenantStats is one tenant's aggregated admission accounting.
	TenantStats = gateway.TenantStats
)

// FormatUsage renders resource utilization rows (Cluster.Resources().Snapshot)
// as an aligned table.
var FormatUsage = metrics.FormatUsage

// Redundancy helpers.
var (
	// ReplicatedN returns an n-way replication scheme.
	ReplicatedN = rados.ReplicatedN
	// ErasureKM returns a k+m erasure-coding scheme.
	ErasureKM = rados.ErasureKM
)

// Chaos helpers.
var (
	// NewFaultInjector binds a fault injector to a cluster.
	NewFaultInjector = chaos.NewInjector
	// GenerateFaults draws a reproducible random fault schedule from a seed.
	GenerateFaults = chaos.Generate
	// DefaultMonitorConfig returns the failure detector defaults.
	DefaultMonitorConfig = rados.DefaultMonitorConfig
	// DefaultRetryPolicy returns the client retry defaults.
	DefaultRetryPolicy = client.DefaultRetryPolicy
	// IsUnavailable reports whether an error is transient unavailability a
	// client should retry (dead primary not yet remapped, PG below quorum).
	IsUnavailable = rados.IsUnavailable
)

// Multi-tenant gateway helpers.
var (
	// NewTenantCoordinator creates a tenant admission front end publishing
	// per-tenant instruments into a registry (usually Cluster.Metrics()).
	NewTenantCoordinator = gateway.New
	// ParseSLO parses an SLO spec: "gold", "silver", "bronze",
	// "unthrottled", or "weight=500,rate=32M,burst=4M,inflight=16".
	ParseSLO = gateway.ParseSLO
	// GoldSLO, SilverSLO and BronzeSLO are the built-in service classes.
	GoldSLO   = gateway.Gold
	SilverSLO = gateway.Silver
	BronzeSLO = gateway.Bronze
)

// NewTenantBlockDevice creates a virtual disk whose every op clears the
// tenant's admission (token bucket, inflight cap, coordinator slots) before
// reaching the dedup store, with the tenant identity attributed on every
// trace span along the way.
func NewTenantBlockDevice(name string, size, objectSize int64, cl *Client, tn *Tenant) (*BlockDevice, error) {
	cl.SetTenant(tn.Name())
	d, err := client.NewBlockDevice(name, size, objectSize, tn.Backend(&client.DedupBackend{Client: cl}))
	if err != nil {
		return nil, err
	}
	d.SetTrace(cl.Trace())
	d.SetTenant(tn.Name())
	return d, nil
}

// DefaultConfig returns the paper's evaluation configuration (32 KiB static
// chunks, replicated ×2 pools, post-processing with rate control).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultTiering returns an enabled adaptive-redundancy configuration
// (assign to Config.Tiering before OpenStore).
var DefaultTiering = core.DefaultTiering

// OpenStore creates the metadata/chunk pools on a cluster and returns the
// dedup store.
func OpenStore(c *Cluster, cfg Config) (*Store, error) { return core.Open(c, cfg) }

// NewBlockDevice creates a virtual disk backed by a dedup store client.
// Device-level trace spans record into the cluster's trace sink.
func NewBlockDevice(name string, size, objectSize int64, cl *Client) (*BlockDevice, error) {
	d, err := client.NewBlockDevice(name, size, objectSize, &client.DedupBackend{Client: cl})
	if err != nil {
		return nil, err
	}
	d.SetTrace(cl.Trace())
	return d, nil
}

// World bundles a simulation engine with a ready-made cluster shaped like
// the paper's testbed (4 hosts × 4 OSDs, SSDs, 10GbE).
type World struct {
	Engine  *Engine
	Cluster *Cluster
}

// NewWorld creates a deterministic simulated testbed.
func NewWorld(seed int64) *World {
	eng := sim.New(seed)
	return &World{Engine: eng, Cluster: rados.NewTestbed(eng, simcost.Default(), 4, 4)}
}

// Run executes fn as a simulated process and drives the virtual clock until
// all foreground work completes. It may be called repeatedly; background
// daemons (the dedup engine) persist across calls.
func (w *World) Run(fn func(p *Proc)) {
	w.Engine.Go("main", fn)
	w.Engine.Run()
}
