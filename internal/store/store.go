// Package store implements the per-OSD object store: a transactional
// key→object map where each object carries a data payload, extended
// attributes (xattr) and a sorted key/value map (omap) — the RADOS object
// model the paper's "self-contained object" design builds on (§3.2, §4.1).
// All deduplication metadata lives inside these per-object fields, so the
// substrate's replication/recovery machinery covers it with no extra code.
//
// The sharing rule. A whole value — WriteFull data, a SetXattr or OmapSet
// value — is immutable from the moment it enters a Txn: Apply adopts the
// slice, so the replicas a transaction is applied to, the snapshots taken of
// them and the stores those are installed on all alias one backing array,
// and GetXattr, OmapGet and Borrow hand the stored slice out read-only. The
// store copies before it edits data in place that someone else may hold
// (Object.shared), and Read / ReadInto copy out, so what they return is the
// caller's. Nobody outside this package writes through an Object's fields
// (scripts/check-seams.sh); a build with -tags storecheck checksums every
// shared payload and panics when one changes.
package store

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"sort"
	"sync"
)

// Key identifies an object within an OSD: pool id plus object name.
type Key struct {
	Pool uint64
	OID  string
}

func (k Key) String() string { return fmt.Sprintf("%d/%s", k.Pool, k.OID) }

// Object is the stored representation, and what Snapshot hands to recovery
// and scrub. Its byte slices are read-only to everyone but this package:
// xattr and omap values are only ever replaced whole, and Data is edited in
// place only while shared is false.
type Object struct {
	Data  []byte
	Xattr map[string][]byte
	Omap  map[string][]byte
	// Version names the last mutation this copy took part in. Apply stamps it
	// from the transaction and Snapshot / Install carry it; the cluster
	// compares it with the object's head to tell a current copy from a stale
	// one. 0 means never stamped.
	Version uint64

	// shared is set while Data's backing array may be held by someone else —
	// the Txn it was adopted from (and so the other replicas), a snapshot, a
	// store the snapshot was installed on, a Borrow — and cleared when an
	// in-place edit has moved Data to an array of its own.
	shared        bool
	sums          payloadSums // checksums of the shared payloads (-tags storecheck; else empty)
	punched       extentSet   // hole ranges (read as zeros, not stored)
	compressedLen int         // cached physical footprint of Data
	compressValid bool        // whether compressedLen is current
}

// PerObjectOverhead models the fixed per-object metadata footprint of the
// backing store (the paper cites "at least 512 bytes" for a Ceph object,
// §5 "Object metadata").
const PerObjectOverhead = 512

// ErrNotFound is returned when an object does not exist.
var ErrNotFound = errors.New("store: object not found")

// Store is one OSD's object store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	objects map[Key]*Object
	sizeFn  func([]byte) int // physical footprint model (compression)

	// Fault injection (tests only): the next failApplies Apply calls fail
	// with failErr without mutating the store.
	failApplies int
	failErr     error
}

// Option configures a Store.
type Option func(*Store)

// WithSizeFn installs a physical-footprint model, e.g. compressfs.Default()
// to model Btrfs compression under the OSD.
func WithSizeFn(fn func([]byte) int) Option {
	return func(s *Store) { s.sizeFn = fn }
}

// FailApplies arms fault injection: the next n Apply calls return err
// without mutating the store. Tests use it to model a device that can no
// longer commit transactions its peers applied (torn write, bad sector) —
// the diverged-replica case.
func (s *Store) FailApplies(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failApplies = n
	s.failErr = err
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{objects: make(map[Key]*Object)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// --- Transactions -----------------------------------------------------------

// OpKind enumerates transaction operations.
type OpKind int

// Transaction operation kinds.
const (
	OpWrite OpKind = iota + 1 // write Data at Off (extends object)
	OpWriteFull
	OpTruncate
	OpDelete
	OpCreate // ensure existence (no-op if present)
	OpSetXattr
	OpOmapSet
	OpOmapRm
	// OpZero punches a hole: the range reads as zeros and stops counting
	// toward the physical footprint (cache eviction of flushed chunks).
	OpZero
)

// Op is one mutation within a transaction.
type Op struct {
	Kind  OpKind
	Off   int64
	Len   int64 // for OpZero
	Data  []byte
	Name  string // xattr/omap key
	Value []byte // xattr/omap value
}

// Txn is an ordered list of mutations applied atomically to ONE object —
// the consistency unit the paper's §4.6 model relies on ("data consistency
// is achieved by the transactional operation of underlying storage system").
// WriteFull data and SetXattr / OmapSet values are adopted, not copied, by
// every store the transaction is applied to: the caller must not change them
// once they are in the Txn. Write data is copied into the object.
type Txn struct {
	Ops []Op

	version uint64 // stamped on the object by Apply (0 = leave it)
}

// Stamp sets the version Apply records on the object the transaction leaves
// behind; without one the object keeps the version it had.
func (t *Txn) Stamp(v uint64) *Txn {
	t.version = v
	return t
}

// NewTxn returns an empty transaction.
func NewTxn() *Txn { return &Txn{} }

// Write appends a partial write.
func (t *Txn) Write(off int64, data []byte) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpWrite, Off: off, Data: data})
	return t
}

// WriteFull appends a full-object replace.
func (t *Txn) WriteFull(data []byte) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpWriteFull, Data: data})
	return t
}

// Truncate appends a truncate to size off.
func (t *Txn) Truncate(off int64) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpTruncate, Off: off})
	return t
}

// Delete appends an object delete.
func (t *Txn) Delete() *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpDelete})
	return t
}

// Create appends an ensure-exists op.
func (t *Txn) Create() *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpCreate})
	return t
}

// SetXattr appends an xattr set.
func (t *Txn) SetXattr(name string, value []byte) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpSetXattr, Name: name, Value: value})
	return t
}

// OmapSet appends an omap key set.
func (t *Txn) OmapSet(key string, value []byte) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpOmapSet, Name: key, Value: value})
	return t
}

// OmapRm appends an omap key removal.
func (t *Txn) OmapRm(key string) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpOmapRm, Name: key})
	return t
}

// Zero appends a punch-hole over [off, off+length).
func (t *Txn) Zero(off, length int64) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpZero, Off: off, Len: length})
	return t
}

// Bytes returns the number of payload bytes the transaction writes — the
// quantity the cost model charges to disk.
func (t *Txn) Bytes() int {
	n := 0
	for _, op := range t.Ops {
		n += len(op.Data) + len(op.Value)
	}
	return n
}

// Empty reports whether the transaction has no operations.
func (t *Txn) Empty() bool { return len(t.Ops) == 0 }

// Apply executes the transaction atomically. A transaction on a missing
// object implicitly creates it (like RADOS) unless it is only a Delete.
func (s *Store) Apply(k Key, t *Txn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failApplies > 0 {
		s.failApplies--
		return s.failErr
	}
	obj := s.objects[k]
	if obj != nil {
		obj.verifySums(k)
	}
	for _, op := range t.Ops {
		switch op.Kind {
		case OpDelete:
			delete(s.objects, k)
			obj = nil
			continue
		case OpCreate, OpWrite, OpWriteFull, OpTruncate, OpSetXattr, OpOmapSet, OpOmapRm, OpZero:
			if obj == nil {
				obj = &Object{}
				s.objects[k] = obj
			}
		default:
			return fmt.Errorf("store: unknown op kind %d", op.Kind)
		}
		switch op.Kind {
		case OpWrite:
			end := op.Off + int64(len(op.Data))
			obj.edit(end, op.Off)
			copy(obj.Data[op.Off:], op.Data)
			obj.punched = obj.punched.sub(op.Off, end)
			obj.compressValid = false
		case OpWriteFull:
			obj.Data, obj.shared = op.Data, true
			obj.sumData()
			obj.punched = nil
			obj.compressValid = false
		case OpTruncate:
			if op.Off < 0 {
				op.Off = 0
			}
			if int64(len(obj.Data)) > op.Off {
				obj.Data = obj.Data[:op.Off]
				obj.sumData()
			} else if int64(len(obj.Data)) < op.Off {
				obj.edit(op.Off, op.Off)
			}
			obj.punched = obj.punched.clamp(op.Off)
			obj.compressValid = false
		case OpZero:
			end := op.Off + op.Len
			if end > int64(len(obj.Data)) {
				end = int64(len(obj.Data))
			}
			if op.Off < 0 {
				op.Off = 0
			}
			if op.Off < end {
				obj.edit(end, op.Off)
				clear(obj.Data[op.Off:end])
			}
			obj.punched = obj.punched.add(op.Off, end)
			obj.compressValid = false
		case OpSetXattr:
			if obj.Xattr == nil {
				obj.Xattr = make(map[string][]byte)
			}
			obj.Xattr[op.Name] = op.Value
			obj.sumValue("xattr", op.Name, op.Value)
		case OpOmapSet:
			if obj.Omap == nil {
				obj.Omap = make(map[string][]byte)
			}
			obj.Omap[op.Name] = op.Value
			obj.sumValue("omap", op.Name, op.Value)
		case OpOmapRm:
			delete(obj.Omap, op.Name)
			obj.forgetValue("omap", op.Name)
		}
	}
	if obj != nil && t.version != 0 {
		obj.Version = t.version
	}
	return nil
}

// edit readies Data for an in-place edit of [off, end): private to this
// object and at least end bytes long. Shared data moves to an array of its
// own first — the one copy-on-write in the store. Private data reuses spare
// capacity, zeroing the bytes between the old length and off because spare
// capacity may hold what an earlier Truncate cut off; otherwise it
// reallocates at the next power of two, so that filling an object by appends
// copies it a bounded number of times per byte instead of once per append,
// and an object whose final size is a power of two (a stripe object, a
// chunk) ends with no slack.
func (o *Object) edit(end, off int64) {
	old := int64(len(o.Data))
	end = max(end, old)
	if o.shared || end > int64(cap(o.Data)) {
		grown := make([]byte, end, 1<<bits.Len64(uint64(max(end, 1)-1)))
		copy(grown, o.Data)
		o.Data, o.shared = grown, false
		o.sumData()
		return
	}
	o.Data = o.Data[:end]
	if old < off {
		clear(o.Data[old:off])
	}
}

// --- Reads ------------------------------------------------------------------

// Exists reports whether the object is present.
func (s *Store) Exists(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[k]
	return ok
}

// Version returns the object's version, 0 if it is absent.
func (s *Store) Version(k Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.objects[k]; ok {
		return obj.Version
	}
	return 0
}

// Size returns the object's data length.
func (s *Store) Size(k Key) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return 0, ErrNotFound
	}
	return int64(len(obj.Data)), nil
}

// span returns the object's bytes in [off, off+length), short if the object
// is smaller and nil past its end. A length < 0 runs to the end. The result
// is the store's own memory: Read and ReadInto copy out of it under the
// lock, Borrow marks it shared before handing it out.
func (o *Object) span(off, length int64) []byte {
	if off >= int64(len(o.Data)) || off < 0 {
		return nil
	}
	end := int64(len(o.Data))
	if length >= 0 && off+length < end {
		end = off + length
	}
	return o.Data[off:end]
}

// Read returns length bytes at off (short if the object is smaller). A
// length < 0 reads to the end. The result is a fresh buffer the caller owns.
func (s *Store) Read(k Key, off, length int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), obj.span(off, length)...), nil
}

// ReadInto copies the object's bytes at off into dst and returns how many it
// copied: len(dst), or fewer if the object ends first (0 at or past its end).
// It is Read for a caller that already owns the buffer the bytes end up in.
// A missing object leaves dst untouched.
func (s *Store) ReadInto(k Key, off int64, dst []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return 0, ErrNotFound
	}
	return copy(dst, obj.span(off, int64(len(dst)))), nil
}

// Borrow is Read for a caller that only looks at the bytes (hashes, compares,
// decodes, copies on): the result is read-only and keeps its contents
// whatever is written to the object afterwards. It is the store's own memory,
// now marked shared, when that costs nothing — the data is shared already, or
// the range covers all of it, so the whole-object copy a later in-place write
// must make is no more than the copy saved here. A partial read of private
// data is copied out instead, as Read would.
func (s *Store) Borrow(k Key, off, length int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	span := obj.span(off, length)
	if !obj.shared && len(span) < len(obj.Data) {
		return append([]byte(nil), span...), nil
	}
	obj.share()
	return span, nil
}

// share marks Data as held by someone besides this object.
func (o *Object) share() {
	if !o.shared {
		o.shared = true
		o.sumData()
	}
}

// GetXattr returns an extended attribute; the result is read-only.
func (s *Store) GetXattr(k Key, name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	v, ok := obj.Xattr[name]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// OmapGet returns one omap value; the result is read-only.
func (s *Store) OmapGet(k Key, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	v, ok := obj.Omap[key]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// OmapList returns up to max omap keys (all if max <= 0), sorted.
func (s *Store) OmapList(k Key, max int) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	keys := make([]string, 0, len(obj.Omap))
	for key := range obj.Omap {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	return keys, nil
}

// Keys returns all object keys, sorted by pool then OID.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Key, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pool != keys[j].Pool {
			return keys[i].Pool < keys[j].Pool
		}
		return keys[i].OID < keys[j].OID
	})
	return keys
}

// PayloadBytes reports the object's transferable payload: data minus
// punched holes, plus metadata. Recovery charges this, mirroring
// sparse-aware object copies.
func (o *Object) PayloadBytes() int {
	n := len(o.Data) - int(o.punched.total())
	for k, v := range o.Xattr {
		n += len(k) + len(v)
	}
	for k, v := range o.Omap {
		n += len(k) + len(v)
	}
	return n
}

// alias returns a second object over the same payloads: Data and every
// xattr and omap value share o's backing arrays, only the maps themselves
// (which each object changes as it goes) are copied. Both objects' Data is
// shared from here on.
func (o *Object) alias(k Key) *Object {
	o.verifySums(k)
	o.share()
	return &Object{
		Data: o.Data, shared: true, sums: o.sums.clone(), Version: o.Version,
		Xattr: maps.Clone(o.Xattr), Omap: maps.Clone(o.Omap), // a nil map stays nil
		punched: append(extentSet(nil), o.punched...),
	}
}

// Snapshot returns the object as it is now, version included (for recovery
// copies and scrub): later writes to the store do not show through it. The
// snapshot is read-only; it aliases the stored payloads.
func (s *Store) Snapshot(k Key) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	return obj.alias(k), nil
}

// Install places a snapshot object at k (recovery path), replacing any
// existing object; the copy keeps the snapshot's version. One snapshot may be
// installed on several OSDs (scrub repair): each gets an object of its own
// over the snapshot's payloads.
func (s *Store) Install(k Key, obj *Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.objects[k]; old != nil {
		old.verifySums(k)
	}
	s.objects[k] = obj.alias(k)
}

// CheckShared verifies every shared payload in the store against the
// checksum taken when it was adopted or borrowed, and panics with the key and
// field of one that changed. Without -tags storecheck no checksums exist and
// it does nothing.
func (s *Store) CheckShared() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, obj := range s.objects {
		obj.verifySums(k)
	}
}

// Clear removes every object (simulates device replacement).
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = make(map[Key]*Object)
}

// --- Accounting -------------------------------------------------------------

// Usage is a store's space breakdown in bytes.
type Usage struct {
	Objects  int
	Data     int64 // logical data bytes
	Physical int64 // data bytes after the footprint model (compression)
	Metadata int64 // xattr + omap + fixed per-object overhead
}

// Total returns physical data plus metadata: the on-disk footprint.
func (u Usage) Total() int64 { return u.Physical + u.Metadata }

// Usage computes the store's space usage.
func (s *Store) Usage() Usage { return s.usage(func(Key) bool { return true }) }

// PoolUsage computes space usage for one pool's objects only.
func (s *Store) PoolUsage(pool uint64) Usage {
	return s.usage(func(k Key) bool { return k.Pool == pool })
}

func (s *Store) usage(include func(Key) bool) Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	var u Usage
	for key, obj := range s.objects {
		if !include(key) {
			continue
		}
		u.Objects++
		u.Data += int64(len(obj.Data))
		if s.sizeFn != nil {
			if !obj.compressValid {
				obj.compressedLen = s.sizeFn(obj.Data)
				obj.compressValid = true
			}
			u.Physical += int64(obj.compressedLen)
		} else {
			u.Physical += int64(len(obj.Data)) - obj.punched.total()
		}
		u.Metadata += PerObjectOverhead
		for n, v := range obj.Xattr {
			u.Metadata += int64(len(n) + len(v))
		}
		for n, v := range obj.Omap {
			u.Metadata += int64(len(n) + len(v))
		}
	}
	return u
}
