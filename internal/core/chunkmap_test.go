package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestChunkMapMarshalRoundTrip(t *testing.T) {
	m := &ChunkMap{Entries: []Entry{
		{Start: 0, End: 32768, ChunkID: "chk.aabb", Cached: true, Dirty: true, Gen: 3},
		{Start: 32768, End: 65536, ChunkID: "", Cached: false, Dirty: false, Gen: 0},
		{Start: 65536, End: 70000, ChunkID: "chk.ccdd", Cached: false, Dirty: true, Gen: 9},
	}}
	got, err := UnmarshalChunkMap(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], m.Entries[i])
		}
	}
}

// TestChunkMapMarshalFixture pins the stored format: the fixture is what
// Marshal produced before it encoded in place, and maps already on disk must
// keep decoding.
func TestChunkMapMarshalFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/chunkmap_3entries.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(raw), "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	m := &ChunkMap{Entries: []Entry{
		{Start: 0, End: 32768, ChunkID: FingerprintID([]byte("fixture-a")), Cached: true, Dirty: true, Gen: 3},
		{Start: 32768, End: 65536, ChunkID: FingerprintID([]byte("fixture-b")), Cold: true, Gen: 0x01020304},
		{Start: 65536, End: 70000, ChunkID: "", Gen: 9},
	}}
	if got := m.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", got, want)
	}
	got, err := UnmarshalChunkMap(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], m.Entries[i])
		}
	}
}

// TestChunkMapCountOverflow: the entry count is stored bytes. One chosen so
// that count*EntryOverhead wraps to the payload length must be refused, not
// used to size the entry slice.
func TestChunkMapCountOverflow(t *testing.T) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, 1<<63) // 1<<63 * 150 wraps to 0
	if _, err := UnmarshalChunkMap(b); !errors.Is(err, ErrCorruptMap) {
		t.Fatalf("wrapping entry count: err = %v, want ErrCorruptMap", err)
	}
}

func TestChunkMapEmpty(t *testing.T) {
	m, err := UnmarshalChunkMap(nil)
	if err != nil || len(m.Entries) != 0 || m.Size() != 0 {
		t.Fatalf("empty: %v %v", m, err)
	}
}

func TestChunkMapCorrupt(t *testing.T) {
	if _, err := UnmarshalChunkMap([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input accepted")
	}
	m := &ChunkMap{Entries: []Entry{{Start: 0, End: 10}}}
	b := m.Marshal()
	if _, err := UnmarshalChunkMap(b[:len(b)-1]); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestChunkMapEntrySizeMatchesPaper(t *testing.T) {
	// §5: "Each chunk entry in chunk map uses 150 bytes."
	m := &ChunkMap{Entries: []Entry{{Start: 0, End: 32768, ChunkID: FingerprintID([]byte("x"))}}}
	if got := len(m.Marshal()); got != 8+EntryOverhead {
		t.Fatalf("serialized entry footprint %d, want %d", got, 8+EntryOverhead)
	}
}

func TestChunkMapFind(t *testing.T) {
	m := &ChunkMap{Entries: []Entry{
		{Start: 0, End: 100},
		{Start: 100, End: 200},
		{Start: 300, End: 400}, // gap 200..300
	}}
	cases := []struct {
		off  int64
		want int
	}{{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, -1}, {250, -1}, {300, 2}, {399, 2}, {400, -1}}
	for _, c := range cases {
		if got := m.Find(c.off); got != c.want {
			t.Fatalf("Find(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestChunkMapFindRange(t *testing.T) {
	m := &ChunkMap{Entries: []Entry{
		{Start: 0, End: 100}, {Start: 100, End: 200}, {Start: 200, End: 300},
	}}
	if got := m.FindRange(50, 200); len(got) != 3 {
		t.Fatalf("FindRange(50,200) = %v", got)
	}
	if got := m.FindRange(100, 100); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FindRange(100,100) = %v", got)
	}
	if got := m.FindRange(300, 10); got != nil {
		t.Fatalf("FindRange past end = %v", got)
	}
}

func TestChunkMapUpsert(t *testing.T) {
	m := &ChunkMap{}
	m.Upsert(Entry{Start: 100, End: 200, ChunkID: "b"})
	m.Upsert(Entry{Start: 0, End: 100, ChunkID: "a"})
	if m.Entries[0].ChunkID != "a" || m.Entries[1].ChunkID != "b" {
		t.Fatal("entries not sorted after upsert")
	}
	// Replace keeps the longer end.
	m.Upsert(Entry{Start: 0, End: 50, ChunkID: "a2"})
	if m.Entries[0].End != 100 || m.Entries[0].ChunkID != "a2" {
		t.Fatalf("upsert shrank slot: %+v", m.Entries[0])
	}
	if m.Size() != 200 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestChunkMapDirtyEntries(t *testing.T) {
	m := &ChunkMap{Entries: []Entry{
		{Start: 0, End: 10, Dirty: true, Cached: true},
		{Start: 10, End: 20},
		{Start: 20, End: 30, Dirty: true},
	}}
	d := m.DirtyEntries()
	if len(d) != 2 || d[0] != 0 || d[1] != 2 {
		t.Fatalf("dirty = %v", d)
	}
}

func TestQuickChunkMapRoundTrip(t *testing.T) {
	prop := func(starts []uint16, dirty []bool) bool {
		m := &ChunkMap{}
		for i, s := range starts {
			e := Entry{Start: int64(s) * 100, End: int64(s)*100 + 100, Gen: uint32(i)}
			if i < len(dirty) {
				e.Dirty = dirty[i]
			}
			m.Upsert(e)
		}
		got, err := UnmarshalChunkMap(m.Marshal())
		if err != nil || len(got.Entries) != len(m.Entries) {
			return false
		}
		for i := range m.Entries {
			if got.Entries[i] != m.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintIDDeterministic(t *testing.T) {
	a := FingerprintID([]byte("same content"))
	b := FingerprintID([]byte("same content"))
	c := FingerprintID([]byte("other content"))
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	if a == c {
		t.Fatal("fingerprint collision on different content")
	}
	if len(a) != 4+64 {
		t.Fatalf("fingerprint ID %q has unexpected length", a)
	}
}
