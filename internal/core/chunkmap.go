// Package core implements the paper's global deduplication design:
//
//   - Double hashing (§3.2): a chunk's fingerprint IS its object ID in the
//     chunk pool, so the underlying store's placement hash doubles as the
//     fingerprint index — there is no separate index to build, shard, or
//     keep in memory.
//   - Self-contained objects (§4.1): metadata objects carry their chunk map
//     in an xattr and cached chunks in their data part; chunk objects carry
//     reference information in xattr/omap. Replication, erasure coding,
//     recovery and rebalancing therefore apply to dedup state for free.
//   - Post-processing dedup engine (§4.4) with watermark rate control
//     (§4.4.2) and a HitSet-based cache manager (§4.3, §5) that exempts hot
//     objects.
//
// The package also contains the baselines the paper compares against:
// inline deduplication, immediate-flush ("Proposed-flush"), and per-OSD
// local deduplication accounting.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Entry is one chunk-map row (Fig. 8): an offset range of the metadata
// object, the chunk object it maps to, and the cached/dirty state bits.
type Entry struct {
	Start, End int64
	ChunkID    string // content fingerprint; "" until first flush
	Cached     bool   // chunk bytes live in the metadata object's data part
	Dirty      bool   // chunk must be (re-)deduplicated
	// Cold marks the binding as living in the erasure-coded (cold) chunk
	// pool rather than the replicated one. Only the adaptive tiering policy
	// sets it; with tiering off every binding is warm and the bit stays 0,
	// so serialized maps are byte-identical to the pre-tiering format.
	Cold bool
	// Gen increments on every client write to the slot. The background
	// engine clears the dirty bit only if Gen is unchanged since it read the
	// chunk, so a write that races with a flush keeps the slot dirty.
	Gen uint32
}

// Len returns the entry's byte length.
func (e Entry) Len() int64 { return e.End - e.Start }

// ChunkMap is the per-object mapping from offset ranges to chunk objects,
// stored in the metadata object's xattr. Entries are sorted by Start and
// non-overlapping; with fixed-size chunking every entry spans at most one
// chunk slot.
type ChunkMap struct {
	Entries []Entry
}

// XattrChunkMap is the xattr key holding the serialized chunk map.
const XattrChunkMap = "dedup.chunkmap"

// ErrCorruptMap reports a malformed serialized chunk map.
var ErrCorruptMap = errors.New("core: corrupt chunk map")

// Size returns the object's logical size: the end of the last entry.
func (m *ChunkMap) Size() int64 {
	if len(m.Entries) == 0 {
		return 0
	}
	return m.Entries[len(m.Entries)-1].End
}

// Find returns the index of the entry containing offset off, or -1.
func (m *ChunkMap) Find(off int64) int {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].End > off })
	if i < len(m.Entries) && m.Entries[i].Start <= off {
		return i
	}
	return -1
}

// FindRange returns the indices of entries overlapping [off, off+length).
func (m *ChunkMap) FindRange(off, length int64) []int {
	var out []int
	end := off + length
	for i, e := range m.Entries {
		if e.End <= off {
			continue
		}
		if e.Start >= end {
			break
		}
		out = append(out, i)
	}
	return out
}

// slot returns the entry starting at the chunk-slot boundary start, or an
// empty entry there for the write path to grow.
func (m *ChunkMap) slot(start int64) Entry {
	if i := m.Find(start); i >= 0 {
		return m.Entries[i]
	}
	return Entry{Start: start, End: start}
}

// Upsert inserts or replaces the entry for [start, end). With fixed-size
// chunking, ranges are chunk-slot aligned so an existing entry either
// matches exactly or is absent; a shorter existing tail entry is grown when
// the object extends.
func (m *ChunkMap) Upsert(e Entry) {
	for i := range m.Entries {
		if m.Entries[i].Start == e.Start {
			if e.End < m.Entries[i].End {
				e.End = m.Entries[i].End // never shrink a slot
			}
			m.Entries[i] = e
			return
		}
	}
	m.Entries = append(m.Entries, e)
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Start < m.Entries[j].Start })
}

// DirtyEntries returns indices of dirty entries.
func (m *ChunkMap) DirtyEntries() []int {
	var out []int
	for i, e := range m.Entries {
		if e.Dirty {
			out = append(out, i)
		}
	}
	return out
}

// EntryOverhead is the serialized footprint the paper attributes to one
// chunk-map entry (§5: "Each chunk entry in chunk map uses 150 bytes").
// Marshal pads entries to this size so that the space-overhead results
// (Table 2) reflect the paper's metadata costs.
const EntryOverhead = 150

// entryFixed is the fixed-width head of a serialized entry: Start, End, Gen,
// flags, chunk-id length. The chunk id follows, then zero padding.
const entryFixed = 8 + 8 + 4 + 1 + 1

// Marshal serializes the map: an entry count, then one EntryOverhead-byte
// record per entry, encoded in place in a buffer sized once.
func (m *ChunkMap) Marshal() []byte {
	buf := make([]byte, 8+len(m.Entries)*EntryOverhead)
	binary.LittleEndian.PutUint64(buf, uint64(len(m.Entries)))
	for i, e := range m.Entries {
		if len(e.ChunkID) > EntryOverhead-entryFixed {
			panic("core: chunk id too long")
		}
		rec := buf[8+i*EntryOverhead:][:EntryOverhead]
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.Start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.End))
		binary.LittleEndian.PutUint32(rec[16:], e.Gen)
		if e.Cached {
			rec[20] |= 1
		}
		if e.Dirty {
			rec[20] |= 2
		}
		if e.Cold {
			rec[20] |= 4
		}
		rec[21] = byte(len(e.ChunkID))
		copy(rec[entryFixed:], e.ChunkID)
	}
	return buf
}

// UnmarshalChunkMap deserializes a map produced by Marshal. A nil input
// yields an empty map.
func UnmarshalChunkMap(b []byte) (*ChunkMap, error) {
	m := &ChunkMap{}
	if len(b) == 0 {
		return m, nil
	}
	if len(b) < 8 {
		return nil, ErrCorruptMap
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	// Divide rather than multiply: n is untrusted and n*EntryOverhead wraps.
	if uint64(len(b))%EntryOverhead != 0 || uint64(len(b))/EntryOverhead != n {
		return nil, fmt.Errorf("%w: %d entries, %d payload bytes", ErrCorruptMap, n, len(b))
	}
	m.Entries = make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		rec := b[i*EntryOverhead : (i+1)*EntryOverhead]
		e := Entry{
			Start: int64(binary.LittleEndian.Uint64(rec[0:])),
			End:   int64(binary.LittleEndian.Uint64(rec[8:])),
			Gen:   binary.LittleEndian.Uint32(rec[16:]),
		}
		flags := rec[20]
		e.Cached = flags&1 != 0
		e.Dirty = flags&2 != 0
		e.Cold = flags&4 != 0
		idLen := int(rec[21])
		if entryFixed+idLen > EntryOverhead {
			return nil, ErrCorruptMap
		}
		e.ChunkID = string(rec[entryFixed : entryFixed+idLen])
		if e.End < e.Start {
			return nil, ErrCorruptMap
		}
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}
