// Package store implements the per-OSD object store: a transactional
// key→object map where each object carries a data payload, extended
// attributes (xattr) and a sorted key/value map (omap) — the RADOS object
// model the paper's "self-contained object" design builds on (§3.2, §4.1).
// All deduplication metadata lives inside these per-object fields, so the
// substrate's replication/recovery machinery covers it with no extra code.
package store

import (
	"errors"
	"fmt"
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

// Object is the stored representation. Byte slices are owned by the store;
// accessors copy.
type Object struct {
	Data  []byte
	Xattr map[string][]byte
	Omap  map[string][]byte

	punched       extentSet // hole ranges (read as zeros, not stored)
	compressedLen int       // cached physical footprint of Data
	compressValid bool      // whether compressedLen is current
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
	OpRmXattr
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
type Txn struct {
	Ops []Op
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

// RmXattr appends an xattr removal.
func (t *Txn) RmXattr(name string) *Txn {
	t.Ops = append(t.Ops, Op{Kind: OpRmXattr, Name: name})
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
	for _, op := range t.Ops {
		switch op.Kind {
		case OpDelete:
			delete(s.objects, k)
			obj = nil
			continue
		case OpCreate, OpWrite, OpWriteFull, OpTruncate, OpSetXattr, OpRmXattr, OpOmapSet, OpOmapRm, OpZero:
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
			if int64(len(obj.Data)) < end {
				obj.Data = extend(obj.Data, end, op.Off)
			}
			copy(obj.Data[op.Off:], op.Data)
			obj.punched = obj.punched.sub(op.Off, end)
			obj.compressValid = false
		case OpWriteFull:
			obj.Data = append([]byte(nil), op.Data...)
			obj.punched = nil
			obj.compressValid = false
		case OpTruncate:
			if op.Off < 0 {
				op.Off = 0
			}
			if int64(len(obj.Data)) > op.Off {
				obj.Data = obj.Data[:op.Off]
			} else if int64(len(obj.Data)) < op.Off {
				grown := make([]byte, op.Off)
				copy(grown, obj.Data)
				obj.Data = grown
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
				clear(obj.Data[op.Off:end])
			}
			obj.punched = obj.punched.add(op.Off, end)
			obj.compressValid = false
		case OpSetXattr:
			if obj.Xattr == nil {
				obj.Xattr = make(map[string][]byte)
			}
			obj.Xattr[op.Name] = append([]byte(nil), op.Value...)
		case OpRmXattr:
			delete(obj.Xattr, op.Name)
		case OpOmapSet:
			if obj.Omap == nil {
				obj.Omap = make(map[string][]byte)
			}
			obj.Omap[op.Name] = append([]byte(nil), op.Value...)
		case OpOmapRm:
			delete(obj.Omap, op.Name)
		}
	}
	return nil
}

// extend grows data to length end for a write that starts at off. It reuses
// spare capacity, zeroing the bytes between the old length and off because
// spare capacity may hold what an earlier Truncate cut off; otherwise it
// reallocates at the next power of two, so that filling an object by appends
// copies it a bounded number of times per byte instead of once per append,
// and an object whose final size is a power of two (a stripe object, a
// chunk) ends with no slack.
func extend(data []byte, end, off int64) []byte {
	if end > int64(cap(data)) {
		grown := make([]byte, end, 1<<bits.Len64(uint64(end-1)))
		copy(grown, data)
		return grown
	}
	old := int64(len(data))
	data = data[:end]
	if old < off {
		clear(data[old:off])
	}
	return data
}

// --- Reads ------------------------------------------------------------------

// Exists reports whether the object is present.
func (s *Store) Exists(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[k]
	return ok
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
// is the store's own memory: callers copy out of it under the lock.
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

// GetXattr returns an extended attribute.
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
	return append([]byte(nil), v...), nil
}

// OmapGet returns one omap value.
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
	return append([]byte(nil), v...), nil
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

// clone returns a deep copy of the object.
func (o *Object) clone() *Object {
	cp := &Object{Data: append([]byte(nil), o.Data...), punched: append(extentSet(nil), o.punched...)}
	if o.Xattr != nil {
		cp.Xattr = make(map[string][]byte, len(o.Xattr))
		for n, v := range o.Xattr {
			cp.Xattr[n] = append([]byte(nil), v...)
		}
	}
	if o.Omap != nil {
		cp.Omap = make(map[string][]byte, len(o.Omap))
		for n, v := range o.Omap {
			cp.Omap[n] = append([]byte(nil), v...)
		}
	}
	return cp
}

// Snapshot returns a deep copy of an object (for recovery copies).
func (s *Store) Snapshot(k Key) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[k]
	if !ok {
		return nil, ErrNotFound
	}
	return obj.clone(), nil
}

// Install places a copy of a snapshot object (recovery path), replacing any
// existing object at k. It copies because one snapshot may be installed on
// several OSDs (scrub repair).
func (s *Store) Install(k Key, obj *Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[k] = obj.clone()
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
