package core

import (
	"errors"
	"fmt"
	"time"

	"dedupstore/internal/chunker"
	"dedupstore/internal/fpindex"
	"dedupstore/internal/hitset"
	"dedupstore/internal/metrics"
	"dedupstore/internal/qos"
	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Mode selects when deduplication happens.
type Mode int

// Dedup timing modes (§3.1 "Minimizing performance degradation").
const (
	// ModePostProcess is the paper's proposed design: writes land in the
	// metadata pool; background threads deduplicate later.
	ModePostProcess Mode = iota + 1
	// ModeInline deduplicates on the write path (the baseline whose
	// partial-write penalty Fig. 5a shows).
	ModeInline
	// ModeFlushThrough writes then immediately flushes to the chunk pool
	// synchronously ("Proposed-flush" in Fig. 10).
	ModeFlushThrough
)

// RateConfig is the watermark-based dedup rate control (§4.4.2).
type RateConfig struct {
	// Enabled turns throttling on. Disabled reproduces the Fig. 5b / Fig. 14
	// interference baseline.
	Enabled bool
	// LowIOPS / HighIOPS are the foreground-load watermarks. The dedup
	// ratio in each band is the paper's (ratepolicy.go).
	LowIOPS, HighIOPS float64
}

// DefaultRate returns the paper's rate-control settings.
func DefaultRate() RateConfig {
	return RateConfig{Enabled: true, LowIOPS: 1000, HighIOPS: 4000}
}

// TieringConfig configures adaptive redundancy: hotness-driven per-object
// placement across replication, EC, and dedup. Off by default — the zero
// value leaves the store exactly as the paper's static two-pool design.
type TieringConfig struct {
	// Enabled turns the subsystem on: a third (cold, erasure-coded) chunk
	// pool is created, the flush engine lands chunks by temperature, and the
	// policy daemon migrates objects whose temperature drifted from their
	// placement. Requires ModePostProcess and static chunking.
	Enabled bool
	// Interval is the policy daemon's pass period (default 1s).
	Interval time.Duration
}

// DefaultTiering returns an enabled tiering config with the defaults
// documented on TieringConfig.
func DefaultTiering() TieringConfig {
	return TieringConfig{Enabled: true}
}

// The metadata pool, the replicated chunk pool (§4.2) and, under tiering,
// the EC 2+1 cold chunk pool.
const (
	metaPoolName  = "meta"
	chunkPoolName = "chunk"
	coldPoolName  = "chunkcold"
)

// scanInterval is the idle poll period of the background workers.
const scanInterval = 50 * time.Millisecond

// intentLease is the lifetime of a phase-1 reference intent (see
// refcount.go): GC and the audit pass leave an intent alone until this
// much sim-time has passed since the flush recorded it, then reconcile
// it (promote if the chunk map binds the chunk, abort otherwise). Must
// comfortably exceed the flush's worst-case bind-to-commit latency.
const intentLease = 2 * time.Second

// Config configures a dedup Store.
type Config struct {
	// ChunkSize is the static chunking size (paper default 32 KiB, §6.1).
	ChunkSize int64
	// MetaRedundancy / ChunkRedundancy are each pool's protection scheme
	// ("each pool can separately select redundancy scheme", §4.2).
	MetaRedundancy, ChunkRedundancy rados.Redundancy
	// Mode selects dedup timing (default post-processing).
	Mode Mode
	// Rate is the background dedup rate control.
	Rate RateConfig
	// HitSet configures the cache manager's hotness tracking (§4.3, §5).
	HitSet hitset.Config
	// DedupThreads is the number of background dedup workers (§4.4.1).
	DedupThreads int
	// FlushParallel bounds the concurrent per-chunk steps of one object's
	// flush: slot reads, then intents, commits and releases (refcount.go).
	FlushParallel int
	// FalsePositiveRefs enables the §4.6 variant: no locking on decrement;
	// zero-reference chunks are reclaimed by the garbage collector instead.
	FalsePositiveRefs bool
	// CDC switches the background flush to content-defined chunking (an
	// extension of the paper's design; the paper uses static chunking for
	// its lower CPU cost, §5). Only valid with ModePostProcess. ChunkSize
	// still governs the write path's caching granularity.
	CDC *chunker.CDC
	// FPIndex enables the per-OSD log-structured fingerprint index on the
	// chunk pool (§4.5's dedup metadata as objects, realized as an LSM index
	// over chunk fingerprints). Zero value (Enabled=false) keeps the flat
	// in-memory map, so existing behavior and goldens are unchanged.
	FPIndex fpindex.Config
	// Tiering enables adaptive redundancy (hot → replicated+undeduplicated,
	// warm → replicated+dedup, cold → EC+dedup). Zero value (Enabled=false)
	// keeps the static two-pool design, so existing behavior and goldens
	// are unchanged.
	Tiering TieringConfig
}

// DefaultConfig mirrors the paper's evaluation setup: 32 KiB static chunks,
// replicated ×2 pools, post-processing with rate control.
func DefaultConfig() Config {
	return Config{
		ChunkSize:       32 << 10,
		MetaRedundancy:  rados.ReplicatedN(2),
		ChunkRedundancy: rados.ReplicatedN(2),
		Mode:            ModePostProcess,
		Rate:            DefaultRate(),
		HitSet:          hitset.DefaultConfig(),
		DedupThreads:    2,
		FlushParallel:   8,
	}
}

// ErrNotFound is returned for absent objects.
var ErrNotFound = rados.ErrNotFound

// Store is the deduplicating object store: the paper's design layered on an
// unmodified scale-out substrate.
type Store struct {
	cluster   *rados.Cluster
	cfg       Config
	meta      *rados.Pool
	chunk     *rados.Pool // replicated (warm) chunk pool
	coldChunk *rados.Pool // erasure-coded (cold) chunk pool; nil unless tiering
	chk       chunker.Fixed
	cache     *TieringPolicy
	engine    *Engine
	tier      tierState

	hostGWs  map[string]*rados.Gateway // keyed class|host: one internal gateway per QoS class per host
	objLocks map[string]*sim.Resource  // inline-mode write locks of objects being written
	scratch  scratchPool               // idle readPadded buffers

	// names remembers the chunk names the host computed, with the stored
	// bytes each names, so equal bytes are not hashed again (names.go).
	names nameMemo

	// dirtyListed counts dirty-list adds that found their object listed;
	// dirtyFailed counts adds a write dropped once its retries ran out.
	dirtyListed, dirtyFailed *metrics.Counter
}

// Open creates (or errors on existing) the metadata and chunk pools and
// returns the dedup store. The background engine is created but not started;
// call StartEngine.
func Open(cluster *rados.Cluster, cfg Config) (*Store, error) {
	if cfg.ChunkSize <= 0 {
		return nil, errors.New("core: ChunkSize must be positive")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModePostProcess
	}
	if cfg.DedupThreads < 1 {
		cfg.DedupThreads = 1
	}
	if cfg.FlushParallel < 1 {
		cfg.FlushParallel = 1
	}
	if cfg.CDC != nil && cfg.Mode != ModePostProcess {
		return nil, errors.New("core: CDC requires post-processing mode")
	}
	if cfg.Tiering.Enabled {
		if cfg.Mode != ModePostProcess {
			return nil, errors.New("core: tiering requires post-processing mode")
		}
		if cfg.CDC != nil {
			return nil, errors.New("core: tiering requires static chunking (no CDC)")
		}
		if cfg.Tiering.Interval <= 0 {
			cfg.Tiering.Interval = time.Second
		}
	}
	meta, err := cluster.CreatePool(rados.PoolConfig{Name: metaPoolName, Redundancy: cfg.MetaRedundancy})
	if err != nil {
		return nil, fmt.Errorf("core: create metadata pool: %w", err)
	}
	chunk, err := cluster.CreatePool(rados.PoolConfig{Name: chunkPoolName, Redundancy: cfg.ChunkRedundancy})
	if err != nil {
		return nil, fmt.Errorf("core: create chunk pool: %w", err)
	}
	if cfg.FPIndex.Enabled {
		if err := cluster.EnableFPIndex(chunk, cfg.FPIndex); err != nil {
			return nil, fmt.Errorf("core: enable fingerprint index: %w", err)
		}
	}
	s := &Store{
		cluster:  cluster,
		cfg:      cfg,
		meta:     meta,
		chunk:    chunk,
		chk:      chunker.NewFixed(cfg.ChunkSize),
		cache:    NewTieringPolicy(cfg.HitSet, cfg.Tiering.Enabled, cluster.Metrics()),
		hostGWs:  make(map[string]*rados.Gateway),
		objLocks: make(map[string]*sim.Resource),
		names:    newNameMemo(),

		dirtyListed: cluster.Metrics().Counter("dedup_dirty_append_listed_total"),
		dirtyFailed: cluster.Metrics().Counter("dedup_dirty_append_failed_total"),
	}
	if cfg.Tiering.Enabled {
		s.coldChunk, err = cluster.CreatePool(rados.PoolConfig{
			Name: coldPoolName, Redundancy: rados.ErasureKM(2, 1),
		})
		if err != nil {
			return nil, fmt.Errorf("core: create cold chunk pool: %w", err)
		}
	}
	s.engine = newEngine(s)
	s.tier.daemon = sim.Loop{Name: "dedup.tier-policy", First: cfg.Tiering.Interval, Every: cfg.Tiering.Interval,
		Tick: func(p *sim.Proc) bool { _, _ = s.TierPass(p); return false }}
	return s, nil
}

// Cluster returns the underlying substrate.
func (s *Store) Cluster() *rados.Cluster { return s.cluster }

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// MetaPool returns the metadata pool.
func (s *Store) MetaPool() *rados.Pool { return s.meta }

// ChunkPool returns the replicated (warm) chunk pool.
func (s *Store) ChunkPool() *rados.Pool { return s.chunk }

// ColdChunkPool returns the erasure-coded chunk pool (nil unless tiering is
// enabled).
func (s *Store) ColdChunkPool() *rados.Pool { return s.coldChunk }

// chunkPoolFor maps a binding's Cold bit to the pool holding the chunk.
func (s *Store) chunkPoolFor(cold bool) *rados.Pool {
	if cold && s.coldChunk != nil {
		return s.coldChunk
	}
	return s.chunk
}

// Engine returns the background dedup engine.
func (s *Store) Engine() *Engine { return s.engine }

// Cache returns the placement policy (the paper's cache manager, §4.3).
func (s *Store) Cache() *TieringPolicy { return s.cache }

// StartEngine spawns the background dedup workers (post-processing mode).
func (s *Store) StartEngine() { s.engine.Start() }

// hostGW returns the dedup-class internal gateway for a storage host (the
// background engine's default; created lazily).
func (s *Store) hostGW(hostName string) *rados.Gateway {
	return s.hostGWClass(hostName, qos.Dedup)
}

// hostGWClass returns the internal gateway for a storage host submitting in
// the given QoS class. Gateways are cached per (class, host): each class
// keeps its own gateway so the I/O it proxies is scheduled — and traced —
// under the class doing the work, not a shared catch-all.
func (s *Store) hostGWClass(hostName string, cls qos.Class) *rados.Gateway {
	key := cls.String() + "|" + hostName
	gw, ok := s.hostGWs[key]
	if !ok {
		var err error
		gw, err = s.cluster.HostGatewayClass(hostName, cls)
		if err != nil {
			panic(err)
		}
		s.hostGWs[key] = gw
	}
	return gw
}

// metaPrimaryGW returns the internal gateway co-located with the metadata
// object's primary OSD — where server-side dedup work for that object runs —
// submitting in the given QoS class (client-serving proxy work rides the
// client class; background flush rides the dedup class).
func (s *Store) metaPrimaryGW(oid string, cls qos.Class) (*rados.Gateway, string, error) {
	hostName, err := s.cluster.PrimaryHost(s.meta, oid)
	if err != nil {
		return nil, "", err
	}
	return s.hostGWClass(hostName, cls), hostName, nil
}

// dirtyListName names metadata PG seq's dirty object ID list (Fig. 8 "Dirty
// Obj ID List"). Kept in the metadata pool so it is replicated and recovered
// like everything else.
func dirtyListName(seq uint32) string { return fmt.Sprintf("sys.dirty.%d", seq) }

// dirtyListOID returns the name of the dirty list of oid's PG.
func (s *Store) dirtyListOID(oid string) string {
	return dirtyListName(s.cluster.PGOf(s.meta, oid).Seq)
}

// setDirty adds oid to its PG's dirty list, or removes it. Adding is
// idempotent, so a flush claim (remove) racing a client write (add) loses
// nothing; it is retried through transient unavailability, because a lost
// add strands the object's dirty slots, which no drain or worker revisits.
// An add that finds oid already listed is a read at the list's primary: the
// op is issued and counted as before (a client's as a foreground op, which
// the rate controller reads), but nothing is written, journaled or
// replicated. That is safe because a write's bind commits before its add is
// issued, so a claim ordered after a skipped add reads the new dirty slot.
func (s *Store) setDirty(p *sim.Proc, gw *rados.Gateway, oid string, dirty bool) error {
	set := func() error {
		return gw.Mutate(p, s.meta, s.dirtyListOID(oid), func(v rados.View) (*store.Txn, error) {
			if !dirty {
				return store.NewTxn().Create().OmapRm(oid), nil
			}
			if _, err := v.OmapGet(oid); err == nil {
				s.dirtyListed.Inc()
				return nil, nil
			}
			return store.NewTxn().Create().OmapSet(oid, nil), nil
		})
	}
	if dirty {
		return retryUnavailable(p, set)
	}
	return set()
}

// dirtyListAll enumerates every dirty-list object name.
func (s *Store) dirtyListAll() []string {
	out := make([]string, 0, s.meta.PGNum)
	for seq := uint32(0); seq < s.meta.PGNum; seq++ {
		out = append(out, dirtyListName(seq))
	}
	return out
}

// IsSystemObject reports whether a metadata-pool object name is internal
// dedup state rather than a user object.
func IsSystemObject(oid string) bool {
	return len(oid) >= 4 && oid[:4] == "sys."
}

// Client opens a user session with its own network link.
type Client struct {
	s           *Store
	gw          *rados.Gateway
	tenant      string
	tenantLabel sim.Label // tenant, as the session's spans carry it

	// Pre-resolved per-kind op handles (write/read/delete).
	opWrite, opRead, opDelete metrics.OpStats
}

// Client returns a client session named name.
func (s *Store) Client(name string) *Client {
	reg := s.cluster.Metrics()
	return &Client{
		s:        s,
		gw:       s.cluster.NewGateway(name),
		opWrite:  metrics.NewOpStats(reg, "dedup_op", "dedup.write", false),
		opRead:   metrics.NewOpStats(reg, "dedup_op", "dedup.read", false),
		opDelete: metrics.NewOpStats(reg, "dedup_op", "dedup.delete", false),
	}
}

// Trace returns the cluster trace sink this client's operations record into.
func (cl *Client) Trace() *metrics.TraceSink { return cl.s.cluster.Trace() }

// SetTenant attributes this session to a tenant: the dedup-level spans it
// opens and the rados ops its gateway issues all carry the identity.
func (cl *Client) SetTenant(tenant string) {
	cl.tenant, cl.tenantLabel = tenant, sim.Intern(tenant)
	cl.gw.SetTenant(tenant)
}

// startOp opens a dedup-level trace span (the outermost span of a client
// op; the rados ops it issues nest under it).
func (cl *Client) startOp(p *sim.Proc, st *metrics.OpStats, bytes int) metrics.Op {
	op := st.Start(p, cl.s.cluster.Trace())
	op.Span.SetOp(cl.s.meta.Label(), 0, int64(bytes)).SetTenant(cl.tenantLabel)
	return op
}

// --- Write path (§4.5) -------------------------------------------------------

// Write stores data at offset off in object oid. In post-processing mode
// this is steps (1)-(4) of §4.5: place data in the metadata object, mark
// chunk-map entries cached+dirty, and log the object in the dirty list; no
// fingerprinting happens on this path.
func (cl *Client) Write(p *sim.Proc, oid string, off int64, data []byte) error {
	op := cl.startOp(p, &cl.opWrite, len(data))
	err := cl.write(p, oid, off, data)
	op.Finish(p, err)
	return err
}

func (cl *Client) write(p *sim.Proc, oid string, off int64, data []byte) error {
	s := cl.s
	if len(data) == 0 {
		return nil
	}
	s.cache.RecordAccessTenant(p.Now(), oid, cl.tenant)

	if s.cfg.Mode == ModeInline {
		return cl.inlineWrite(p, oid, off, data)
	}
	if s.cfg.CDC != nil {
		return cl.cdcWrite(p, oid, off, data)
	}

	proxyGW, hostName, err := s.metaPrimaryGW(oid, qos.Client)
	if err != nil {
		return err
	}
	// A transition with nothing to pin or release: the write is the bind.
	_, err = s.rebind(p, cl.gw, oid, transition{
		payload: len(data),
		bind: func(cm *ChunkMap, txn *store.Txn) ([]Entry, bool, error) {
			// Pre-read (§4.5 write step 2): when a sub-chunk write lands on a
			// slot whose bytes live only in the chunk pool, the primary fetches
			// the missing part so the slot becomes a complete cached chunk.
			end := off + int64(len(data))
			for _, i := range cm.FindRange(s.chk.AlignDown(off), s.chk.AlignUp(end)-s.chk.AlignDown(off)) {
				e := cm.Entries[i]
				if e.Cached || e.ChunkID == "" || (off <= e.Start && end >= e.End) {
					continue
				}
				chunkData, err := proxyGW.Read(p, s.chunkPoolFor(e.Cold), e.ChunkID, 0, e.Len())
				if err != nil {
					return nil, false, fmt.Errorf("core: pre-read chunk %s: %w", e.ChunkID, err)
				}
				txn.Write(e.Start, chunkData)
			}
			txn.Write(off, data)
			for _, c := range s.chk.Split(off, data) {
				cur := cm.slot(s.chk.AlignDown(c.Offset))
				if c.End() > cur.End {
					cur.End = c.End()
				}
				cur.Cached = true
				cur.Dirty = true
				cur.Gen++
				cm.Upsert(cur)
			}
			return nil, false, nil
		},
	})
	if err != nil {
		return err
	}
	// Step (4): log the object ID for the background dedup engine. The log
	// append does not gate the client's ack — the authoritative dirty state
	// is the chunk map's dirty bits, written transactionally above (§4.6).
	// It outlives the write, so it does not trace into the write's span.
	p.Go("dirty-log", func(q *sim.Proc) {
		q.SetTracer(nil, 0)
		if s.setDirty(q, cl.gw, oid, true) != nil {
			s.dirtyFailed.Inc()
		}
	})
	if s.cfg.Mode == ModeFlushThrough {
		// "Proposed-flush": deduplicate immediately (Fig. 10 worst case). The
		// flush gates the client's ack, so it submits in the client class.
		return s.engine.flushObject(p, proxyGW, hostName, oid, true)
	}
	return nil
}

// --- Read path (§4.5) --------------------------------------------------------

// Read returns length bytes at off (length < 0 reads to the object end).
// Cached chunks are served from the metadata object (step 4a); non-cached
// chunks are proxied through the metadata primary to the chunk pool
// (step 4b — the redirection whose cost Fig. 10/11 quantify).
func (cl *Client) Read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	op := cl.startOp(p, &cl.opRead, 0)
	out, err := cl.read(p, oid, off, length)
	op.Span.SetBytes(int64(len(out)))
	op.Finish(p, err)
	return out, err
}

func (cl *Client) read(p *sim.Proc, oid string, off, length int64) ([]byte, error) {
	s := cl.s
	s.cache.RecordAccessTenant(p.Now(), oid, cl.tenant)
	// The chunk-map lookup happens at the metadata primary as part of
	// serving the read (§4.5 read steps 2-3); the request hop is charged
	// here, the map lookup rides the data ops below.
	p.Sleep(s.cluster.Cost().NetLatency)
	raw, err := cl.gw.PeekXattr(s.meta, oid, XattrChunkMap)
	if err != nil {
		return nil, err
	}
	cm, err := UnmarshalChunkMap(raw)
	if err != nil {
		return nil, err
	}
	size := cm.Size()
	if off >= size {
		return nil, nil
	}
	if length < 0 || off+length > size {
		length = size - off
	}
	if length <= 0 {
		return nil, nil
	}
	out := make([]byte, length)
	idxs := cm.FindRange(off, length)
	proxyGW, _, err := s.metaPrimaryGW(oid, qos.Client)
	if err != nil {
		return nil, err
	}
	var sigs []*sim.Signal
	var firstErr error
	proxied := 0
	for _, i := range idxs {
		e := cm.Entries[i]
		rStart := max(off, e.Start)
		rEnd := min(off+length, e.End)
		if rStart >= rEnd {
			continue
		}
		if e.Cached {
			sigs = append(sigs, p.Go("read-cached", func(q *sim.Proc) {
				if _, err := cl.gw.ReadInto(q, s.meta, oid, rStart, out[rStart-off:rEnd-off]); err != nil {
					firstErr = err
				}
			}))
			continue
		}
		// Redirection: metadata primary fetches from the chunk pool, then
		// forwards to the client.
		proxied += int(rEnd - rStart)
		sigs = append(sigs, p.Go("read-redirect", func(q *sim.Proc) {
			if _, err := proxyGW.ReadInto(q, s.chunkPoolFor(e.Cold), e.ChunkID, rStart-e.Start, out[rStart-off:rEnd-off]); err != nil {
				firstErr = fmt.Errorf("core: chunk %s: %w", e.ChunkID, err)
			}
		}))
	}
	sim.WaitAll(p, sigs...)
	if firstErr != nil {
		return nil, firstErr
	}
	if proxied > 0 {
		cl.gw.ClientXfer(p, proxied) // final hop: metadata primary -> client
	}
	return out, nil
}

// Stat returns the object's logical size from its chunk map.
func (cl *Client) Stat(p *sim.Proc, oid string) (int64, error) {
	cm, err := cl.s.readChunkMap(p, cl.gw, oid)
	if err != nil {
		return 0, err
	}
	return cm.Size(), nil
}

// Delete removes the object, de-referencing every chunk it points to.
func (cl *Client) Delete(p *sim.Proc, oid string) error {
	op := cl.startOp(p, &cl.opDelete, 0)
	err := cl.delete(p, oid)
	op.Finish(p, err)
	return err
}

func (cl *Client) delete(p *sim.Proc, oid string) error {
	s := cl.s
	cm, err := s.readChunkMap(p, cl.gw, oid)
	if err != nil {
		return err
	}
	if err := s.release(p, cl.gw, oid, cm.Entries); err != nil {
		return err
	}
	if err := cl.gw.Delete(p, s.meta, oid); err != nil {
		return err
	}
	return s.setDirty(p, cl.gw, oid, false)
}

// --- Inline baseline (§3.1, Fig. 5a) -----------------------------------------

// inlineWrite deduplicates synchronously on the write path: every chunk is
// fingerprinted and sent to the chunk pool before the ack; sub-chunk writes
// force a read-modify-write of the whole chunk. Inline writes to one object
// are serialized (librbd-style client stripe locking) because the chunk-map
// read-modify-write spans several cluster operations. The slots are prepared
// first (RMW read, hash); then one transition pins every chunk that changed,
// binds the slots and releases what they replaced.
func (cl *Client) inlineWrite(p *sim.Proc, oid string, off int64, data []byte) error {
	s := cl.s
	lock, ok := s.objLocks[oid]
	if !ok {
		lock = sim.NewResource("inline."+oid, 1)
		s.objLocks[oid] = lock
	}
	lock.Acquire(p)
	defer func() {
		// Nobody waits: drop the entry. A fresh lock behaves as this idle
		// one would, so only objects being written keep one.
		if lock.QueueLen() == 0 {
			delete(s.objLocks, oid)
		}
		lock.Release(p)
	}()
	hostName, err := s.cluster.PrimaryHost(s.meta, oid)
	if err != nil {
		return err
	}
	// Only a missing map means a new object: planning against a map rebuilt
	// from an unreachable read would treat every slot as unbound.
	cm, err := s.readChunkMap(p, cl.gw, oid)
	if errors.Is(err, ErrNotFound) {
		cm, err = &ChunkMap{}, nil
	}
	if err != nil {
		return err
	}
	var puts []chunkPut
	var next []Entry // the touched slots as this write leaves them
	for _, c := range s.chk.Split(off, data) {
		cur := cm.slot(s.chk.AlignDown(c.Offset))
		full := c.Data
		// Partial-write problem: read-modify-write of the full chunk.
		if c.Offset > cur.Start || (c.End() < cur.End && cur.ChunkID != "") {
			merged := make([]byte, max(cur.End, c.End())-cur.Start)
			if cur.ChunkID != "" {
				if _, err := cl.gw.ReadInto(p, s.chunk, cur.ChunkID, 0, merged[:cur.Len()]); err != nil {
					return err
				}
			}
			copy(merged[c.Offset-cur.Start:], c.Data)
			full = merged
		}
		// Fingerprint on the write path (inline's latency cost).
		if err := s.cluster.UseHostCPU(p, hostName, s.cluster.Cost().Hash(len(full))); err != nil {
			return err
		}
		newID := s.name(full)
		if cur.ChunkID != newID {
			puts = append(puts, chunkPut{pool: s.chunk, id: newID, data: full, off: cur.Start, named: true})
		}
		cur.End = max(cur.End, c.End())
		cur.ChunkID, cur.Cached, cur.Dirty = newID, false, false
		next = append(next, cur)
	}
	bound, err := s.rebind(p, cl.gw, oid, transition{
		puts: puts,
		bind: func(cur *ChunkMap, _ *store.Txn) (unbound []Entry, raced bool, err error) {
			for _, e := range next {
				old := cur.slot(e.Start)
				if old != cm.slot(e.Start) {
					return nil, true, nil // not the slot the chunk was built from
				}
				if old.ChunkID != "" && old.ChunkID != e.ChunkID {
					unbound = append(unbound, old)
				}
				cur.Upsert(e)
			}
			return unbound, false, nil
		},
	})
	if err == nil && !bound {
		err = fmt.Errorf("core: inline write to %q raced another change to the object", oid)
	}
	return err
}

// readChunkMap reads and decodes oid's chunk map, riding out transient
// unavailability. What a missing (ErrNotFound), still-unreachable
// (rados.IsUnavailable) or corrupt (ErrCorruptMap) map means is the caller's
// policy.
func (s *Store) readChunkMap(p *sim.Proc, gw *rados.Gateway, oid string) (*ChunkMap, error) {
	raw, err := retryGet(p, func() ([]byte, error) { return gw.GetXattr(p, s.meta, oid, XattrChunkMap) })
	if err != nil {
		return nil, err
	}
	return UnmarshalChunkMap(raw)
}

// readPadded reads n bytes at off, zero-padding a short read: an entry may
// extend past the bytes its object physically holds (sparse tail). The buffer
// is scratch, for readers that only hash the bytes or pass them on to a
// transaction that copies what it keeps: hand it back with s.scratch.put once
// nothing started with it is still running. Sim processes interleave at every
// I/O, so each read in flight holds a buffer of its own. A flush reads a run
// of slots into one and hands each slot a capped slice of it: the slices are
// the same scratch, so nothing keeps them either, and only the whole buffer
// is recycled.
func (s *Store) readPadded(p *sim.Proc, gw *rados.Gateway, pool *rados.Pool, oid string, off, n int64) ([]byte, error) {
	data := s.scratch.get(n)
	got, err := gw.ReadInto(p, pool, oid, off, data)
	if err != nil {
		s.scratch.put(data)
		return nil, err
	}
	clear(data[got:])
	return data, nil
}

// splitRuns splits xs, ascending by offset, into runs of adjacent slots, each
// beginning where the one before it ends: both flush paths read each run of a
// metadata object's cached slots with one read (DESIGN.md §6.3). The runs are
// slices of xs.
func splitRuns[T any](xs []T, entry func(T) Entry) [][]T {
	var runs [][]T
	for lo := 0; lo < len(xs); {
		hi := lo + 1
		for hi < len(xs) && entry(xs[hi]).Start == entry(xs[hi-1]).End {
			hi++
		}
		runs = append(runs, xs[lo:hi])
		lo = hi
	}
	return runs
}
