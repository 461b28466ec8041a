// Package fpindex implements a per-OSD log-structured fingerprint index:
// the on-disk metadata structure that makes dedup-pool chunk lookups cost
// real I/O instead of a free map probe. The paper's "double hashing" design
// (§4.1) replaces a cluster-wide fingerprint table with content-derived
// placement, but every chunk create/lookup still lands on some OSD that must
// answer "do I hold this fingerprint?" from durable metadata. fpindex models
// that structure the way production stores build it (LevelDB/RocksDB shape):
//
//	writes  → WAL append + memtable insert
//	flush   → memtable sorted into an SSTable appended to level 0
//	levels  → size-tiered: a level over its fanout is merged into the next
//	lookup  → memtable, then tables newest→oldest; per-table bloom filter
//	          (internal/bloom) rejects most absent keys; positives read one
//	          data block through an LRU block cache
//
// The index itself is pure data structure plus cost accounting: every
// operation reports the bytes it would have read/written and the CPU it
// burned through an IO adapter, which the rados layer binds to the OSD's
// QoS scheduler (dedup class) and the simcost model. With a nil adapter the
// index is free, which is what unit tests and benchmarks use.
package fpindex

import (
	"sync"
	"time"

	"dedupstore/internal/sim"
)

// Config sizes one OSD's fingerprint index.
type Config struct {
	// Enabled turns the index on. The zero value leaves the flat in-memory
	// map behavior (no index, no cost) so existing experiments are unchanged.
	Enabled bool
	// MemtableBytes is the flush threshold for the in-memory write buffer.
	MemtableBytes int
	// BlockBytes is the SSTable data-block size, the unit of cached reads.
	BlockBytes int
	// CacheBytes caps the LRU block cache (0 disables caching: every
	// bloom-positive probe reads its block from disk).
	CacheBytes int
	// BloomFP is the per-table bloom filter's design false-positive rate.
	BloomFP float64
	// LevelFanout is the max tables per level before compaction merges the
	// level into the next one.
	LevelFanout int
}

// The cost model's fixed terms.
const (
	// entryBytes models the on-disk bytes an entry occupies beyond its key
	// (sequence number, size hint, tombstone flag, framing).
	entryBytes = 16
	// bloomCheckCost is the CPU time per bloom-filter membership probe.
	bloomCheckCost = 200 * time.Nanosecond
	// searchCost is the CPU time to binary-search one data block.
	searchCost = 500 * time.Nanosecond
	// CompactEvery is how often the background compactor polls for levels
	// over their fanout.
	CompactEvery = 25 * time.Millisecond
)

// DefaultConfig returns an enabled index sized for tens of thousands of
// fingerprints per OSD: small enough that experiments can push the table
// set past the block cache without gigabyte workloads.
func DefaultConfig() Config {
	return Config{
		Enabled:       true,
		MemtableBytes: 64 << 10,
		BlockBytes:    4 << 10,
		CacheBytes:    256 << 10,
		BloomFP:       0.01,
		LevelFanout:   4,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = d.MemtableBytes
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = d.BlockBytes
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0
	}
	if c.BloomFP <= 0 || c.BloomFP >= 1 {
		c.BloomFP = d.BloomFP
	}
	if c.LevelFanout < 2 {
		c.LevelFanout = d.LevelFanout
	}
	return c
}

// IO is the cost adapter: the index reports modeled disk bytes and CPU time
// through it. Any nil function (or a nil *sim.Proc on the call) makes that
// charge free — unit tests run uncharged; rados binds these to the OSD's
// QoS-scheduled disk and the host CPU.
type IO struct {
	Read  func(p *sim.Proc, n int)
	Write func(p *sim.Proc, n int)
	CPU   func(p *sim.Proc, d time.Duration)
}

// entry is one fingerprint record. Seq orders records globally (newest
// wins); Del marks a tombstone.
type entry struct {
	seq  uint64
	size uint32
	del  bool
}

// walRec is one durable write-ahead-log record.
type walRec struct {
	seq  uint64
	key  string
	size uint32
	del  bool
}

// walRecOverhead models the framing bytes of a WAL record beyond its key.
const walRecOverhead = 24

// charges accumulates the modeled cost of one operation while the index
// lock is held; the cost is paid (parking the proc) only after unlock, so a
// parked proc never blocks other procs on the mutex.
type charges struct {
	read  int
	write int
	cpu   time.Duration
}

// Index is one OSD's fingerprint index. Safe for concurrent use; all
// blocking cost charges happen outside the internal lock.
type Index struct {
	mu  sync.Mutex
	cfg Config
	io  IO

	seq        uint64 // last assigned sequence number
	durableSeq uint64 // max sequence covered by flushed SSTables (manifest)
	tableSeq   uint64 // SSTable id allocator

	mem      *memtable
	wal      []walRec
	walBytes int

	levels [][]*sstable // levels[0] = newest tier; within a level, newest last
	cache  *blockCache

	st stats

	// Test hooks: fired inside a flush, between writing the SSTable and
	// truncating the WAL (and just before installing the table). Returning
	// true simulates an OSD crash at that instant: the flush aborts and the
	// index transitions exactly as Crash() would.
	hookBeforeInstall func() bool
	hookAfterInstall  func() bool
}

// New creates an index with the given configuration and cost adapter.
func New(cfg Config, io IO) *Index {
	cfg = cfg.withDefaults()
	return &Index{
		cfg:    cfg,
		io:     io,
		mem:    newMemtable(),
		cache:  newBlockCache(cfg.CacheBytes),
		levels: make([][]*sstable, 0, 4),
	}
}

func (x *Index) charge(p *sim.Proc, ch charges) {
	if p == nil {
		return
	}
	if ch.cpu > 0 && x.io.CPU != nil {
		x.io.CPU(p, ch.cpu)
	}
	if ch.read > 0 && x.io.Read != nil {
		x.io.Read(p, ch.read)
	}
	if ch.write > 0 && x.io.Write != nil {
		x.io.Write(p, ch.write)
	}
}

// Insert records fingerprint key (size is the chunk's stored size hint).
func (x *Index) Insert(p *sim.Proc, key string, size uint32) {
	x.apply(p, key, size, false)
}

// Delete records removal of fingerprint key (a tombstone until compaction
// drops it at the deepest level).
func (x *Index) Delete(p *sim.Proc, key string) {
	x.apply(p, key, 0, true)
}

func (x *Index) apply(p *sim.Proc, key string, size uint32, del bool) {
	x.mu.Lock()
	x.seq++
	rec := walRec{seq: x.seq, key: key, size: size, del: del}
	x.wal = append(x.wal, rec)
	rb := len(key) + walRecOverhead
	x.walBytes += rb
	x.mem.put(key, entry{seq: rec.seq, size: size, del: del})
	if del {
		x.st.deletes++
	} else {
		x.st.inserts++
	}
	ch := charges{write: rb}
	if x.mem.bytes >= x.cfg.MemtableBytes {
		x.flushLocked(&ch)
	}
	x.st.readBytes += int64(ch.read)
	x.st.writeBytes += int64(ch.write)
	x.mu.Unlock()
	x.charge(p, ch)
}

// Flush forces the memtable out to a level-0 SSTable (no-op when empty).
func (x *Index) Flush(p *sim.Proc) {
	x.mu.Lock()
	var ch charges
	if x.mem.len() > 0 {
		x.flushLocked(&ch)
	}
	x.st.readBytes += int64(ch.read)
	x.st.writeBytes += int64(ch.write)
	x.mu.Unlock()
	x.charge(p, ch)
}

// flushLocked turns the memtable into an SSTable. Durability order matters
// and is what the crash tests probe:
//
//  1. write the table (charged),
//  2. install it and advance durableSeq (the manifest record),
//  3. truncate the WAL records the table now covers,
//  4. clear the memtable.
//
// A crash before step 2 leaves the full WAL to replay (the half-written
// table is unreferenced garbage); a crash after step 2 replays only records
// past durableSeq, so nothing is lost and nothing is applied twice.
func (x *Index) flushLocked(ch *charges) {
	t := buildSSTable(x.nextTableID(), x.mem.sorted(), x.cfg)
	ch.write += t.bytes
	if x.hookBeforeInstall != nil && x.hookBeforeInstall() {
		x.crashLocked()
		return
	}
	x.levels = ensureLevel(x.levels, 0)
	x.levels[0] = append(x.levels[0], t)
	if t.maxSeq > x.durableSeq {
		x.durableSeq = t.maxSeq
	}
	x.st.flushes++
	x.st.flushBytes += int64(t.bytes)
	if x.hookAfterInstall != nil && x.hookAfterInstall() {
		x.crashLocked()
		return
	}
	x.truncateWALLocked()
	x.mem.clear()
}

// truncateWALLocked drops WAL records already covered by flushed tables.
func (x *Index) truncateWALLocked() {
	keep := x.wal[:0]
	bytes := 0
	for _, r := range x.wal {
		if r.seq > x.durableSeq {
			keep = append(keep, r)
			bytes += len(r.key) + walRecOverhead
		}
	}
	x.wal = keep
	x.walBytes = bytes
}

func (x *Index) nextTableID() uint64 {
	x.tableSeq++
	return x.tableSeq
}

func ensureLevel(levels [][]*sstable, i int) [][]*sstable {
	for len(levels) <= i {
		levels = append(levels, nil)
	}
	return levels
}

// Lookup reports whether the fingerprint is present, charging the modeled
// bloom probes, block-cache reads and searches the walk costs.
func (x *Index) Lookup(p *sim.Proc, key string) bool {
	x.mu.Lock()
	x.st.lookups++
	var ch charges
	found := x.lookupLocked(key, &ch)
	x.st.readBytes += int64(ch.read)
	x.st.writeBytes += int64(ch.write)
	x.mu.Unlock()
	x.charge(p, ch)
	return found
}

func (x *Index) lookupLocked(key string, ch *charges) bool {
	if e, ok := x.mem.get(key); ok {
		x.st.memHits++
		return !e.del
	}
	// Newest data first: level 0 holds the freshest tables (appended at the
	// end), deeper levels hold older merges.
	for li := 0; li < len(x.levels); li++ {
		tables := x.levels[li]
		for ti := len(tables) - 1; ti >= 0; ti-- {
			t := tables[ti]
			ch.cpu += bloomCheckCost
			x.st.bloomChecks++
			if !t.filter.ContainsString(key) {
				x.st.bloomNegatives++
				x.noteAbsentProbe(t)
				continue
			}
			b, ok := t.blockOf(key)
			if !ok {
				// Bloom said maybe, but the key sorts outside every block:
				// a false positive caught by the sparse index alone.
				x.st.bloomFalsePos++
				x.noteAbsentProbe(t)
				continue
			}
			bk := blockKey{table: t.id, block: b}
			if x.cache.get(bk) {
				x.st.cacheHits++
			} else {
				x.st.cacheMisses++
				ch.read += t.blockBytes[b]
				x.cache.add(bk, t.blockBytes[b])
			}
			ch.cpu += searchCost
			if e, ok := t.get(key, b); ok {
				return !e.del
			}
			x.st.bloomFalsePos++
			x.noteAbsentProbe(t)
		}
	}
	return false
}

// noteAbsentProbe records a probe against a table that did not hold the key,
// feeding the observed-vs-estimated false-positive comparison.
func (x *Index) noteAbsentProbe(t *sstable) {
	x.st.absentProbes++
	x.st.estFPSum += t.filter.EstimatedFP()
}

// CompactOnce merges the shallowest level over its fanout into the next
// level, charging the read of every input table and the write of the merged
// output. It returns false when no level needs compaction. The rados layer
// runs this from a per-OSD background daemon so merges overlap foreground
// lookups instead of stalling inserts.
func (x *Index) CompactOnce(p *sim.Proc) bool {
	x.mu.Lock()
	var ch charges
	done := x.compactLocked(&ch)
	x.st.readBytes += int64(ch.read)
	x.st.writeBytes += int64(ch.write)
	x.mu.Unlock()
	x.charge(p, ch)
	return done
}

func (x *Index) compactLocked(ch *charges) bool {
	for li := 0; li < len(x.levels); li++ {
		if len(x.levels[li]) <= x.cfg.LevelFanout {
			continue
		}
		inputs := append([]*sstable(nil), x.levels[li]...)
		// Tombstones are dropped only when the output becomes the oldest
		// data: no table at the destination level or deeper can still hold
		// an older live version the tombstone must shadow.
		dropTombstones := true
		for lj := li + 1; lj < len(x.levels); lj++ {
			if len(x.levels[lj]) > 0 {
				dropTombstones = false
				break
			}
		}
		out := mergeSSTables(x.nextTableID(), inputs, x.cfg, dropTombstones)
		for _, t := range inputs {
			ch.read += t.bytes
			x.cache.dropTable(t.id)
		}
		x.levels[li] = nil
		if out != nil {
			ch.write += out.bytes
			x.levels = ensureLevel(x.levels, li+1)
			x.levels[li+1] = append(x.levels[li+1], out)
			x.st.compactionBytes += int64(out.bytes)
		}
		x.st.compactions++
		return true
	}
	return false
}

// Crash models the OSD process dying: RAM (memtable, block cache, the seq
// counter) is lost; the WAL, the SSTables and durableSeq survive on disk.
func (x *Index) Crash() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.crashLocked()
}

func (x *Index) crashLocked() {
	x.mem.clear()
	x.cache.clear()
	x.seq = x.durableSeq
	for _, r := range x.wal {
		if r.seq > x.seq {
			x.seq = r.seq
		}
	}
}

// Recover replays the WAL into a fresh memtable after a Crash, charging the
// sequential log read. Records already covered by a flushed table
// (seq ≤ durableSeq) are skipped, so a crash between an SSTable install and
// the WAL truncation cannot double-apply entries.
func (x *Index) Recover(p *sim.Proc) {
	x.mu.Lock()
	var ch charges
	ch.read = x.walBytes
	replayed := 0
	for _, r := range x.wal {
		if r.seq <= x.durableSeq {
			continue
		}
		x.mem.put(r.key, entry{seq: r.seq, size: r.size, del: r.del})
		if r.seq > x.seq {
			x.seq = r.seq
		}
		replayed++
	}
	x.st.recoveries++
	x.st.replayedRecs += int64(replayed)
	x.st.readBytes += int64(ch.read)
	x.mu.Unlock()
	x.charge(p, ch)
}

// Reset wipes the index completely (the OSD's store was replaced).
func (x *Index) Reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.mem.clear()
	x.cache.clear()
	x.wal = nil
	x.walBytes = 0
	x.levels = x.levels[:0]
	x.seq = 0
	x.durableSeq = 0
}

// Keys returns the live (non-tombstoned) fingerprints, sorted — a full
// merge, used by consistency tests and tooling, never on the data path.
func (x *Index) Keys() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	merged := make(map[string]entry)
	// Oldest first so newer entries overwrite.
	for li := len(x.levels) - 1; li >= 0; li-- {
		for _, t := range x.levels[li] {
			for i, k := range t.keys {
				if cur, ok := merged[k]; !ok || t.ents[i].seq > cur.seq {
					merged[k] = t.ents[i]
				}
			}
		}
	}
	for k, e := range x.mem.entries {
		if cur, ok := merged[k]; !ok || e.seq > cur.seq {
			merged[k] = e
		}
	}
	out := make([]string, 0, len(merged))
	for k, e := range merged {
		if !e.del {
			out = append(out, k)
		}
	}
	sortStrings(out)
	return out
}
