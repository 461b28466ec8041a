package fpindex

import "sort"

// memtable is the in-RAM write buffer: the newest version of every recently
// written fingerprint, byte-accounted against the flush threshold. It is
// volatile — a crash loses it, which is exactly what the WAL replays.
type memtable struct {
	entries map[string]entry
	bytes   int
}

func newMemtable() *memtable {
	return &memtable{entries: make(map[string]entry)}
}

func (m *memtable) put(key string, e entry) {
	if _, ok := m.entries[key]; !ok {
		m.bytes += len(key) + entryBytes
	}
	m.entries[key] = e
}

func (m *memtable) get(key string) (entry, bool) {
	e, ok := m.entries[key]
	return e, ok
}

func (m *memtable) len() int { return len(m.entries) }

func (m *memtable) clear() {
	m.entries = make(map[string]entry)
	m.bytes = 0
}

// kv is one sorted memtable record handed to the SSTable builder.
type kv struct {
	key string
	ent entry
}

// sorted returns the memtable's records in key order (deterministic flush).
func (m *memtable) sorted() []kv {
	out := make([]kv, 0, len(m.entries))
	for k, e := range m.entries {
		out = append(out, kv{key: k, ent: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func sortStrings(s []string) { sort.Strings(s) }
