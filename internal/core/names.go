package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"

	"dedupstore/internal/rados"
	"dedupstore/internal/store"
)

// The host names a byte string once (DESIGN.md §9). Double hashing makes a
// chunk's name the SHA-256 of its bytes, so the flush, the CDC rechunk and the
// inline write name every chunk they prepare, and most of those bytes the
// store already holds under that name: a no-op rewrite or a duplicate. The
// scrub names every chunk it reads, and its verdict is that name against the
// chunk's own. The memo keeps, per payload length and CRC-32C, one name the
// host computed and the stored bytes it was computed from, and name reuses it
// for equal bytes.
// Equal bytes have equal SHA-256, so the reuse is exact, and a CRC collision
// costs only a compare. The memo is host-side only: every naming site still
// charges the modelled Hash, so no simulated number depends on it.
//
// What keeps the kept bytes honest:
//   - they are the chunk's own payload, the copy a put creates the chunk
//     from, and a stored payload never changes in place (rot gives the copy
//     a new array). A slot's buffer is recycled scratch and is never kept;
//   - only a replicated pool's payload is kept: there the clone is what the
//     replicas store, while an erasure pool's clone is garbage once encoded;
//   - only a put whose name the host computed from those very bytes teaches
//     the memo (chunkPut.named). A tier migration carries the source's name
//     over bytes read from a copy that may have rotted;
//   - a chunk the store deletes leaves the memo, so it holds no payload the
//     pools no longer do.

// nameKey is a payload's weak identity.
type nameKey struct {
	n   int
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func keyOf(data []byte) nameKey { return nameKey{len(data), crc32.Checksum(data, castagnoli)} }

// namedBytes is a chunk name and the stored payload it names.
type namedBytes struct {
	id   string
	data []byte
}

// nameMemo maps a weak key to the one name kept under it, and each kept name
// back to its key; a later payload with the same key replaces the earlier.
type nameMemo struct {
	byKey map[nameKey]namedBytes
	byID  map[string]nameKey
}

func newNameMemo() nameMemo {
	return nameMemo{byKey: make(map[nameKey]namedBytes), byID: make(map[string]nameKey)}
}

// learn records that id is the fingerprint of data, a chunk's stored payload.
func (m *nameMemo) learn(id string, data []byte) {
	k := keyOf(data)
	if old, ok := m.byKey[k]; ok {
		delete(m.byID, old.id)
	}
	m.byKey[k] = namedBytes{id: id, data: data}
	m.byID[id] = k
}

// forget drops id, if kept.
func (m *nameMemo) forget(id string) {
	if k, ok := m.byID[id]; ok {
		delete(m.byID, id)
		delete(m.byKey, k)
	}
}

// name returns FingerprintID(data), reusing a kept name for equal bytes.
func (s *Store) name(data []byte) string {
	if m, ok := s.names.byKey[keyOf(data)]; ok && bytes.Equal(m.data, data) {
		if checkNames {
			if id := FingerprintID(data); id != m.id {
				panic(fmt.Sprintf("core: storecheck: memo names %d bytes %s, SHA-256 says %s", len(data), m.id, id))
			}
		}
		return m.id
	}
	return FingerprintID(data)
}

// learnPut teaches the memo a put that created its chunk from a computed name.
func (s *Store) learnPut(put *chunkPut, created []byte) {
	if put.named && created != nil && put.pool.Red.Kind != rados.Erasure {
		s.names.learn(put.id, created)
	}
}

// forgetDeleted wraps fn so that a transaction deleting chunk id also drops
// id from the memo.
func (s *Store) forgetDeleted(id string, fn rados.MutateFn) rados.MutateFn {
	return func(v rados.View) (*store.Txn, error) {
		txn, err := fn(v)
		if txn != nil && slices.ContainsFunc(txn.Ops, func(op store.Op) bool { return op.Kind == store.OpDelete }) {
			s.names.forget(id)
		}
		return txn, err
	}
}
