package fpindex

import (
	"sort"

	"dedupstore/internal/bloom"
)

// sstable is one immutable sorted run: key-ordered entries cut into
// fixed-size data blocks, a sparse index (first key per block, pinned in
// RAM like a real table's index block), and a bloom filter sized for the
// table's entry count. Only data blocks cost reads; bloom and sparse index
// are charged as CPU.
type sstable struct {
	id     uint64
	keys   []string
	ents   []entry
	minSeq uint64
	maxSeq uint64
	bytes  int // modeled on-disk size of the data blocks

	blockStart []int    // entry index where each block begins
	blockBytes []int    // modeled bytes per block
	firstKey   []string // sparse index: first key of each block
	filter     *bloom.Filter
}

// buildSSTable lays out sorted records into blocks and builds the filter.
func buildSSTable(id uint64, recs []kv, cfg Config) *sstable {
	t := &sstable{
		id:     id,
		keys:   make([]string, len(recs)),
		ents:   make([]entry, len(recs)),
		filter: bloom.NewWithEstimates(uint64(len(recs)), cfg.BloomFP),
	}
	cur := 0 // bytes in the open block
	for i, r := range recs {
		t.keys[i] = r.key
		t.ents[i] = r.ent
		if r.ent.seq < t.minSeq || t.minSeq == 0 {
			t.minSeq = r.ent.seq
		}
		if r.ent.seq > t.maxSeq {
			t.maxSeq = r.ent.seq
		}
		t.filter.AddString(r.key)
		sz := len(r.key) + entryBytes
		if cur == 0 || cur+sz > cfg.BlockBytes {
			t.blockStart = append(t.blockStart, i)
			t.blockBytes = append(t.blockBytes, 0)
			t.firstKey = append(t.firstKey, r.key)
			cur = 0
		}
		cur += sz
		t.blockBytes[len(t.blockBytes)-1] += sz
		t.bytes += sz
	}
	return t
}

// blockOf locates the data block that could hold key via the sparse index.
// ok is false when the key sorts before the first block.
func (t *sstable) blockOf(key string) (int, bool) {
	// First block whose firstKey is > key; the candidate is the one before.
	i := sort.Search(len(t.firstKey), func(i int) bool { return t.firstKey[i] > key })
	if i == 0 {
		return 0, false
	}
	return i - 1, true
}

// get binary-searches block b for key.
func (t *sstable) get(key string, b int) (entry, bool) {
	lo := t.blockStart[b]
	hi := len(t.keys)
	if b+1 < len(t.blockStart) {
		hi = t.blockStart[b+1]
	}
	part := t.keys[lo:hi]
	i := sort.SearchStrings(part, key)
	if i < len(part) && part[i] == key {
		return t.ents[lo+i], true
	}
	return entry{}, false
}

// mergeSSTables merges whole tables into one run, newest version of each
// key winning. With dropTombstones (the output becomes the oldest data),
// deletions are discarded instead of carried forward. Returns nil when the
// merge produces no entries.
func mergeSSTables(id uint64, inputs []*sstable, cfg Config, dropTombstones bool) *sstable {
	merged := make(map[string]entry)
	for _, t := range inputs {
		for i, k := range t.keys {
			if cur, ok := merged[k]; !ok || t.ents[i].seq > cur.seq {
				merged[k] = t.ents[i]
			}
		}
	}
	recs := make([]kv, 0, len(merged))
	for k, e := range merged {
		if dropTombstones && e.del {
			continue
		}
		recs = append(recs, kv{key: k, ent: e})
	}
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	return buildSSTable(id, recs, cfg)
}
