package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dedupstore/internal/rados"
	"dedupstore/internal/sim"
	"dedupstore/internal/store"
)

// Double hashing (§3.2): the chunk object's ID is the fingerprint of its
// contents, so the cluster's placement hash maps equal chunks to the same
// location and duplicates collapse with no fingerprint index at all.

// FingerprintID returns the chunk-pool object ID for chunk contents.
func FingerprintID(data []byte) string {
	sum := sha256.Sum256(data)
	return "chk." + hex.EncodeToString(sum[:])
}

// Chunk object metadata keys. The reference information the paper stores
// with each chunk (§4.1: "pool id, source object ID, offset") lives in the
// chunk object's own omap; the count is an xattr. RefEntryOverhead models
// the paper's per-reference cost (§5: "the object in chunk pool uses
// additional 64 bytes for reference").
//
// Two kinds of omap entries live on a chunk object:
//
//   - "ref."-prefixed keys are committed references: the chunk map of the
//     source object binds that offset to this chunk, and the reference
//     count includes them.
//   - "int."-prefixed keys are reference *intents*: phase 1 of the
//     two-phase reference update (see rebind). The value is
//     a sim-time lease expiry. An intent does not count toward the
//     reference count; it only keeps GC from reclaiming the chunk while a
//     flush is between "chunk written" and "reference committed". Expired
//     intents are reconciled by GC and the audit pass: promoted to
//     committed references when the source chunk map binds this chunk,
//     aborted (removed) otherwise.
const (
	XattrRefCount    = "dedup.rc"
	refKeyPrefix     = "ref."
	intentKeyPrefix  = "int."
	RefEntryOverhead = 64
)

// Ref identifies one reference from a metadata-object chunk slot to a chunk.
type Ref struct {
	Pool   uint64
	OID    string
	Offset int64
}

// key serializes the reference under prefix, padded with dots to the paper's
// per-reference footprint. The OID is length-prefixed, so any OID — including
// ones containing '|' or trailing '.' — round-trips through parseRefBody.
// (The previous "pool|oid|offset" form mis-parsed such OIDs, leaving their
// references invisible to GC forever.) It is built in one buffer: the key is
// made on every reference mutation and every liveness probe.
func (r Ref) key(prefix string) string {
	b := append(make([]byte, 0, RefEntryOverhead), prefix...)
	b = append(strconv.AppendUint(b, r.Pool, 10), '|')
	b = append(strconv.AppendInt(b, int64(len(r.OID)), 10), ':')
	b = append(append(b, r.OID...), '|')
	b = strconv.AppendInt(b, r.Offset, 10)
	for len(b) < RefEntryOverhead {
		b = append(b, '.')
	}
	return string(b)
}

// Key returns the omap key for this committed reference.
func (r Ref) Key() string { return r.key(refKeyPrefix) }

// IntentKey returns the omap key recording a phase-1 intent for this
// reference.
func (r Ref) IntentKey() string { return r.key(intentKeyPrefix) }

// parseRefBody inverts Ref.key's body. The padding dots are unambiguous
// because the body is self-delimiting: the OID's length is explicit and the
// trailing offset is all digits.
func parseRefBody(body string) (Ref, bool) {
	bar := strings.IndexByte(body, '|')
	if bar < 0 {
		return Ref{}, false
	}
	pool, err := strconv.ParseUint(body[:bar], 10, 64)
	if err != nil {
		return Ref{}, false
	}
	rest := body[bar+1:]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return Ref{}, false
	}
	oidLen, err := strconv.Atoi(rest[:colon])
	if err != nil || oidLen < 0 || colon+1+oidLen > len(rest) {
		return Ref{}, false
	}
	oid := rest[colon+1 : colon+1+oidLen]
	rest = rest[colon+1+oidLen:]
	if len(rest) == 0 || rest[0] != '|' {
		return Ref{}, false
	}
	rest = rest[1:]
	// Offset digits end where the '.' padding begins.
	numEnd := 0
	for numEnd < len(rest) && (rest[numEnd] == '-' && numEnd == 0 || rest[numEnd] >= '0' && rest[numEnd] <= '9') {
		numEnd++
	}
	if numEnd == 0 || strings.TrimRight(rest[numEnd:], ".") != "" {
		return Ref{}, false
	}
	off, err := strconv.ParseInt(rest[:numEnd], 10, 64)
	if err != nil {
		return Ref{}, false
	}
	return Ref{Pool: pool, OID: oid, Offset: off}, true
}

// parseRefKey inverts Ref.Key.
func parseRefKey(key string) (Ref, bool) {
	if !strings.HasPrefix(key, refKeyPrefix) {
		return Ref{}, false
	}
	return parseRefBody(key[len(refKeyPrefix):])
}

// parseIntentKey inverts Ref.IntentKey.
func parseIntentKey(key string) (Ref, bool) {
	if !strings.HasPrefix(key, intentKeyPrefix) {
		return Ref{}, false
	}
	return parseRefBody(key[len(intentKeyPrefix):])
}

// isRefKey / isIntentKey classify a chunk-object omap key.
func isRefKey(k string) bool    { return strings.HasPrefix(k, refKeyPrefix) }
func isIntentKey(k string) bool { return strings.HasPrefix(k, intentKeyPrefix) }

// The reference-count xattr packs the committed-reference count with a
// generation number bumped by every reference mutation on the chunk. GC
// snapshots the generation before its (unlocked, cross-pool) liveness
// checks and re-reads it under the sweep lock: a changed generation means
// a reference mutation raced the verification, so the sweep's decisions
// are stale and must not be replayed.
const rcLen = 16

// ErrCorruptRefCount reports a malformed dedup.rc xattr.
var ErrCorruptRefCount = errors.New("core: corrupt refcount xattr")

func encodeRC(count, gen uint64) []byte {
	b := make([]byte, rcLen)
	binary.LittleEndian.PutUint64(b, count)
	binary.LittleEndian.PutUint64(b[8:], gen)
	return b
}

func decodeRC(b []byte) (count, gen uint64, ok bool) {
	if len(b) != rcLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), true
}

// readRC reads and decodes the refcount xattr from a mutate view. Errors —
// including a transient unavailable read on an EC pool — propagate to the
// caller instead of decoding as count 0 and clobbering the real count.
func readRC(v rados.View) (count, gen uint64, err error) {
	raw, err := v.GetXattr(XattrRefCount)
	if err != nil {
		return 0, 0, err
	}
	count, gen, ok := decodeRC(raw)
	if !ok {
		return 0, 0, ErrCorruptRefCount
	}
	return count, gen, nil
}

func encodeExpiry(t sim.Time) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(t))
	return b
}

func decodeExpiry(b []byte) (sim.Time, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return sim.Time(binary.LittleEndian.Uint64(b)), true
}

// refTable is a chunk object's omap partitioned by key kind, each part in the
// sorted order OmapList returns. Every reader of a chunk's reference table —
// release, abort, the GC mark and sweep, the audit and scrub — classifies its
// keys here.
type refTable struct {
	refs    []string // committed references
	intents []string // phase-1 intents
	unknown []string // neither: nothing writes these
}

func partitionRefKeys(keys []string) (t refTable) {
	for _, k := range keys {
		switch {
		case isRefKey(k):
			t.refs = append(t.refs, k)
		case isIntentKey(k):
			t.intents = append(t.intents, k)
		default:
			t.unknown = append(t.unknown, k)
		}
	}
	return t
}

// chunkRefs lists and partitions the reference table of the chunk under v.
func chunkRefs(v rados.View) (refTable, error) {
	keys, err := v.OmapList(0)
	return partitionRefKeys(keys), err
}

// intentOutcome reports what putIntentFn found under the PG lock.
type intentOutcome struct {
	// committed: this exact reference is already a committed ref (idempotent
	// re-flush after a crash between commit and map update) — no intent was
	// recorded, and neither commit nor abort must run.
	committed bool
	// existed: the chunk was already in the pool (a duplicate).
	existed bool
}

// ErrChunkVanished is returned when a transition pins a chunk it has no bytes
// for (a snapshot's) and the chunk is no longer in its pool.
var ErrChunkVanished = errors.New("core: chunk vanished")

// putIntentFn is phase 1 of the two-phase reference update: store the chunk
// contents if absent (nil data pins an existing chunk only) and record a
// reference intent with a lease expiry. The committed reference count is NOT
// incremented — the intent only pins the chunk against GC until
// commitIntentFn (phase 3) lands or the lease runs out. Re-running phase 1
// for the same reference refreshes the lease.
func putIntentFn(data []byte, ref Ref, expiry sim.Time, out *intentOutcome) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		if out != nil {
			*out = intentOutcome{}
		}
		txn := store.NewTxn()
		if !v.Exists() {
			if data == nil {
				return nil, ErrChunkVanished
			}
			// The chunk object keeps a copy; data may be a scratch buffer.
			txn.WriteFull(bytes.Clone(data)).
				SetXattr(XattrRefCount, encodeRC(0, 1)).
				OmapSet(ref.IntentKey(), encodeExpiry(expiry))
			return txn, nil
		}
		count, gen, err := readRC(v)
		if err != nil {
			return nil, err
		}
		if out != nil {
			out.existed = true
		}
		if _, err := v.OmapGet(ref.Key()); err == nil {
			if out != nil {
				out.committed = true
			}
			// Already committed (idempotent re-flush) — bump the generation
			// anyway so a GC pass that judged this reference stale before the
			// re-bind cannot replay its decision against it.
			return txn.SetXattr(XattrRefCount, encodeRC(count, gen+1)), nil
		}
		txn.SetXattr(XattrRefCount, encodeRC(count, gen+1)).
			OmapSet(ref.IntentKey(), encodeExpiry(expiry))
		return txn, nil
	}
}

// commitIntentFn is phase 3: the chunk-map binding is durable, so convert
// the intent into a committed reference and count it. Safe to run after GC
// aborted an expired intent (the reference is still recorded — the binding
// exists, which is exactly what GC verifies) and idempotent when the audit
// pass promoted the intent first.
func commitIntentFn(ref Ref) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		if !v.Exists() {
			// The chunk vanished between binding and commit: only possible if
			// the lease expired mid-flush AND the binding was already gone
			// (racing write), so the flush result is obsolete anyway.
			return nil, nil
		}
		count, gen, err := readRC(v)
		if err != nil {
			return nil, err
		}
		txn := store.NewTxn().OmapRm(ref.IntentKey())
		if _, err := v.OmapGet(ref.Key()); err != nil {
			txn.OmapSet(ref.Key(), nil)
			count++
		}
		txn.SetXattr(XattrRefCount, encodeRC(count, gen+1))
		return txn, nil
	}
}

// abortIntentFn rolls back phase 1 after the map swap raced or failed. In
// strict mode a chunk left with no references and no other intents is
// deleted inline (there is no GC to reclaim it); in false-positive mode it
// is left for the collector. A crash before the abort lands is covered by
// the lease: GC/audit abort the expired intent.
func abortIntentFn(ref Ref, strict bool) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		if !v.Exists() {
			return nil, nil
		}
		if _, err := v.OmapGet(ref.IntentKey()); err != nil {
			return nil, nil // no intent recorded (already reconciled)
		}
		count, gen, err := readRC(v)
		if err != nil {
			return nil, err
		}
		t, err := chunkRefs(v)
		if err != nil {
			return nil, err
		}
		if strict && count == 0 && len(t.refs) == 0 && len(t.intents) == 1 {
			return store.NewTxn().Delete(), nil // this intent was all that held it
		}
		return store.NewTxn().
			OmapRm(ref.IntentKey()).
			SetXattr(XattrRefCount, encodeRC(count, gen+1)), nil
	}
}

// releaseRefFn removes a committed reference. In strict mode the chunk
// object is deleted inline once no committed reference — and no in-flight
// intent — remains. The false-positive variant (§4.6 last paragraph:
// "strictly locks on increment but no locking on decrement") never deletes
// inline; a garbage collector reclaims zero-reference chunks later. A failed
// refcount read propagates (so retryUnavailable can retry) instead of
// decoding as zero and clobbering the count.
func releaseRefFn(ref Ref, strict bool) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		if !v.Exists() {
			return nil, nil // already gone (idempotent)
		}
		if _, err := v.OmapGet(ref.Key()); err != nil {
			return nil, nil // reference not present (idempotent retry)
		}
		count, gen, err := readRC(v)
		if err != nil {
			return nil, err
		}
		if strict {
			t, err := chunkRefs(v)
			if err != nil {
				return nil, err
			}
			if len(t.refs) == 1 && len(t.intents) == 0 {
				return store.NewTxn().Delete(), nil // this reference was the last
			}
		}
		if count > 0 {
			count--
		}
		return store.NewTxn().
			SetXattr(XattrRefCount, encodeRC(count, gen+1)).
			OmapRm(ref.Key()), nil
	}
}

// --- The chunk-map transition (§4.6) -----------------------------------------

// chunkPut is one chunk a transition binds at offset off of its object:
// phase 1 pins it in pool, creating the chunk object from data if absent. A
// put with nil data pins a chunk that must already be there and fails the
// transition with ErrChunkVanished if it is not. The three flags are rebind's
// to set; existed and bound are its report.
type chunkPut struct {
	pool *rados.Pool
	id   string
	data []byte
	off  int64

	existed bool // phase 1 found the chunk already in the pool
	intent  bool // phase 1 recorded an intent, which commit or abort must settle
	bound   bool // the chunk map as rebind wrote it binds off to this chunk
}

// transition states one change to an object's chunk map: which chunks to pin
// and how to edit the map. Callers say what changes; rebind owns the order.
type transition struct {
	puts []chunkPut
	// payload is the bulk data the bind ships to the metadata object.
	payload int
	// bind edits the chunk map loaded under the metadata object's PG lock and
	// adds any data ops to txn; it runs at bind time, so policy that must see
	// bind-time sim time is decided here. It returns the bindings it replaced,
	// or raced when nothing in the map matches what the caller planned against
	// any more. rebind writes the edited map back unless it raced. A bind may
	// take only some of the puts (slots that changed since the caller looked
	// stay as they are): the edited map says which.
	bind func(cur *ChunkMap, txn *store.Txn) (unbound []Entry, raced bool, err error)
}

// fanOut runs fn(q, i) for every i in [0, n) on at most width sim processes
// and returns when all are done; with one item or width 1 it runs on p itself.
func fanOut(p *sim.Proc, name string, n, width int, fn func(q *sim.Proc, i int)) {
	if n <= 1 || width <= 1 {
		for i := 0; i < n; i++ {
			fn(p, i)
		}
		return
	}
	next := 0
	sigs := make([]*sim.Signal, min(n, width))
	for w := range sigs {
		sigs[w] = p.Go(name, func(q *sim.Proc) {
			for next < n {
				next++
				fn(q, next-1)
			}
		})
	}
	sim.WaitAll(p, sigs...)
}

// rebindHooks are simulated crash points inside rebind (tests only). A hook
// returning true abandons the transition at that point, as a crash would.
type rebindHooks struct {
	afterIntent  func(oid string) bool // intents recorded, map untouched (transitions with puts only)
	afterBind    func(oid string) bool // map rewritten, intents uncommitted
	afterRelease func(oid string) bool // everything landed
}

// errCrash simulates a failure injected by a rebindHooks hook.
var errCrash = errors.New("core: injected crash")

// rebind is the one implementation of the paper's consistency ordering
// (§4.6) — pin the chunk, bind it in the chunk map, count the reference,
// release the old chunk — so a failure at any point can only leave a
// false-positive reference. It is also the only writer of a chunk map: client
// writes (static, CDC and the inline baseline), flushes, snapshots, eviction,
// re-dedup, recache and tier migration all describe a transition:
//
//	intent   every put records a reference intent on its chunk object
//	         (creating the chunk if absent) with a lease expiry: the chunk
//	         is pinned against GC but the reference is not yet counted;
//	bind     t.bind edits the chunk map under the metadata object's PG lock
//	         — the authoritative statement of which references exist. A
//	         raced or failed bind aborts the intents inline;
//	commit   each intent the written map binds becomes a counted reference
//	         (retried through transient unavailability); one the bind did
//	         not take — its slot changed — is aborted, by the rule GC and
//	         the audit apply to an expired intent;
//	release  the bindings the bind replaced are de-referenced, each in the
//	         pool its Cold bit names — after the bind, so no window exists
//	         where the map points at a chunk whose reference is gone.
//
// The bind is one operation; intent, commit and release each fan out
// FlushParallel-wide, since their steps hit different chunk objects (two puts
// of equal content serialise on that chunk's PG lock and leave two
// references). A transition with no puts, or that replaced nothing, skips
// those phases outright: a client write is the bind and nothing else.
//
// Crash windows and who resolves them: after intent, no binding names the
// chunk, the lease expires and GC/audit abort the intent. After bind, the
// binding exists but its reference is an expired intent, which GC/audit
// promote; the replaced chunks keep a stale reference that GC's mark pass
// (binding gone → reference dead) sweeps. Mid-commit or mid-release is the
// same state, partly resolved; commit and release are idempotent.
//
// bound reports whether the chunk map changed; !bound with a nil error means
// the bind raced and nothing happened. An abort error is surfaced unless a
// put or bind error already explains the failure.
func (s *Store) rebind(p *sim.Proc, gw *rados.Gateway, oid string, t transition) (bound bool, err error) {
	if err := s.pin(p, gw, oid, t.puts); err != nil {
		return false, s.settle(p, gw, oid, t.puts, err)
	}
	if h := s.hooks.afterIntent; h != nil && len(t.puts) > 0 && h(oid) {
		return false, errCrash
	}

	var cur *ChunkMap
	var unbound []Entry
	raced := false
	err = gw.MutateWithPayload(p, s.meta, oid, t.payload, func(v rados.View) (*store.Txn, error) {
		var err error
		if cur, err = loadChunkMap(v); err != nil {
			return nil, err
		}
		txn := store.NewTxn()
		unbound, raced, err = t.bind(cur, txn)
		if err != nil || raced {
			return nil, err
		}
		return txn.SetXattr(XattrChunkMap, cur.Marshal()), nil
	})
	if err != nil || raced {
		return false, s.settle(p, gw, oid, t.puts, err)
	}
	for i := range t.puts {
		put := &t.puts[i]
		j := cur.Find(put.off)
		put.bound = j >= 0 && s.binds(cur.Entries[j], put.pool, put.id)
	}
	if h := s.hooks.afterBind; h != nil && h(oid) {
		return true, errCrash
	}
	if err := s.settle(p, gw, oid, t.puts, nil); err != nil {
		return true, err
	}
	if err := s.release(p, gw, oid, unbound); err != nil {
		return true, err
	}
	if h := s.hooks.afterRelease; h != nil && h(oid) {
		return true, errCrash
	}
	return true, nil
}

// loadChunkMap reads the chunk map under the metadata object's PG lock.
func loadChunkMap(v rados.View) (*ChunkMap, error) {
	raw, err := v.GetXattr(XattrChunkMap)
	if err != nil {
		return &ChunkMap{}, nil // absent: new object
	}
	return UnmarshalChunkMap(raw)
}

// refAt names the reference from offset off of metadata object oid.
func (s *Store) refAt(oid string, off int64) Ref { return Ref{Pool: s.meta.ID, OID: oid, Offset: off} }

// pin is rebind's intent phase. It stops recording at the first error.
func (s *Store) pin(p *sim.Proc, gw *rados.Gateway, oid string, puts []chunkPut) (err error) {
	if len(puts) == 0 {
		return nil
	}
	fanOut(p, "intent", len(puts), s.cfg.FlushParallel, func(q *sim.Proc, i int) {
		if err != nil {
			return
		}
		put := &puts[i]
		var out intentOutcome
		expiry := q.Now() + sim.Time(intentLease)
		if perr := gw.MutateWithPayload(q, put.pool, put.id, len(put.data), putIntentFn(put.data, s.refAt(oid, put.off), expiry, &out)); perr != nil {
			err = fmt.Errorf("core: pin chunk %s: %w", put.id, perr)
			return
		}
		put.existed, put.intent = out.existed, !out.committed
	})
	return err
}

// settle commits the intents pin recorded for bound puts and aborts the rest.
// A put whose reference is already committed (idempotent re-run) recorded
// none. It returns cause, or the first error of its own if cause is nil.
func (s *Store) settle(p *sim.Proc, gw *rados.Gateway, oid string, puts []chunkPut, cause error) error {
	if len(puts) == 0 {
		return cause
	}
	strict := !s.cfg.FalsePositiveRefs
	fanOut(p, "settle", len(puts), s.cfg.FlushParallel, func(q *sim.Proc, i int) {
		put := &puts[i]
		if !put.intent {
			return
		}
		ref := s.refAt(oid, put.off)
		var err error
		if put.bound {
			// On persistent commit failure the binding already exists, so
			// GC/audit promote the expired intent: the protocol converges.
			err = retryUnavailable(q, func() error { return gw.Mutate(q, put.pool, put.id, commitIntentFn(ref)) })
		} else {
			err = gw.Mutate(q, put.pool, put.id, abortIntentFn(ref, strict))
		}
		if err != nil && !errors.Is(err, ErrNotFound) && cause == nil {
			cause = err
		}
	})
	return cause
}

// release de-references the chunks oid's entries are bound to (unbound
// entries are skipped), each in the pool its Cold bit names, FlushParallel at
// a time. It returns the first error and starts nothing new after one.
func (s *Store) release(p *sim.Proc, gw *rados.Gateway, oid string, entries []Entry) (first error) {
	if len(entries) == 0 {
		return nil
	}
	strict := !s.cfg.FalsePositiveRefs
	fanOut(p, "release", len(entries), s.cfg.FlushParallel, func(q *sim.Proc, i int) {
		e := entries[i]
		if e.ChunkID == "" || first != nil {
			return
		}
		err := gw.Mutate(q, s.chunkPoolFor(e.Cold), e.ChunkID, releaseRefFn(s.refAt(oid, e.Start), strict))
		if err != nil && !errors.Is(err, ErrNotFound) {
			first = err
		}
	})
	return first
}
