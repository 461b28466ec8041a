package store

import (
	"bytes"
	"testing"
	"testing/quick"

	"dedupstore/internal/compressfs"
)

var k = Key{Pool: 1, OID: "obj"}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New()
	if err := s.Apply(k, NewTxn().WriteFull([]byte("hello world"))); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(k, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	part, err := s.Read(k, 6, 5)
	if err != nil || string(part) != "world" {
		t.Fatalf("partial read %q, %v", part, err)
	}
}

func TestPartialWriteExtends(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().Write(4, []byte("abcd")))
	got, _ := s.Read(k, 0, -1)
	want := append(make([]byte, 4), []byte("abcd")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Overwrite inside.
	s.Apply(k, NewTxn().Write(0, []byte("zz")))
	got, _ = s.Read(k, 0, 2)
	if string(got) != "zz" {
		t.Fatalf("overwrite failed: %q", got)
	}
	if sz, _ := s.Size(k); sz != 8 {
		t.Fatalf("size=%d want 8", sz)
	}
}

func TestReadBeyondEnd(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull([]byte("abc")))
	got, err := s.Read(k, 10, 5)
	if err != nil || got != nil {
		t.Fatalf("read past end = %v, %v", got, err)
	}
	short, err := s.Read(k, 2, 100)
	if err != nil || string(short) != "c" {
		t.Fatalf("short read = %q, %v", short, err)
	}
}

func TestTruncate(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull([]byte("abcdef")).Truncate(3))
	got, _ := s.Read(k, 0, -1)
	if string(got) != "abc" {
		t.Fatalf("truncate down: %q", got)
	}
	s.Apply(k, NewTxn().Truncate(5))
	got, _ = s.Read(k, 0, -1)
	if !bytes.Equal(got, []byte{'a', 'b', 'c', 0, 0}) {
		t.Fatalf("truncate up: %v", got)
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull([]byte("x")))
	s.Apply(k, NewTxn().Delete())
	if s.Exists(k) {
		t.Fatal("object survives delete")
	}
	if _, err := s.Read(k, 0, -1); err != ErrNotFound {
		t.Fatalf("err=%v want ErrNotFound", err)
	}
	if _, err := s.Size(k); err != ErrNotFound {
		t.Fatalf("err=%v", err)
	}
	if _, err := s.GetXattr(k, "a"); err != ErrNotFound {
		t.Fatalf("err=%v", err)
	}
}

func TestDeleteThenRecreateInOneTxn(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull([]byte("old")).SetXattr("a", []byte("1")))
	s.Apply(k, NewTxn().Delete().WriteFull([]byte("new")))
	got, _ := s.Read(k, 0, -1)
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	if _, err := s.GetXattr(k, "a"); err != ErrNotFound {
		t.Fatal("xattr survived delete+recreate")
	}
}

func TestXattr(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().Create().SetXattr("chunkmap", []byte{1, 2, 3}))
	v, err := s.GetXattr(k, "chunkmap")
	if err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("xattr = %v, %v", v, err)
	}
}

func TestOmap(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().Create().OmapSet("b", []byte("2")).OmapSet("a", []byte("1")))
	v, err := s.OmapGet(k, "a")
	if err != nil || string(v) != "1" {
		t.Fatalf("omap get = %q, %v", v, err)
	}
	keys, err := s.OmapList(k, 0)
	if err != nil || len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("omap list = %v, %v", keys, err)
	}
	keys, _ = s.OmapList(k, 1)
	if len(keys) != 1 {
		t.Fatalf("omap list max=1 returned %v", keys)
	}
	s.Apply(k, NewTxn().OmapRm("a"))
	if _, err := s.OmapGet(k, "a"); err != ErrNotFound {
		t.Fatal("omap key survived removal")
	}
}

func TestTxnAtomicOrder(t *testing.T) {
	s := New()
	// Write then truncate then write: order matters.
	s.Apply(k, NewTxn().WriteFull([]byte("abcdef")).Truncate(2).Write(2, []byte("Z")))
	got, _ := s.Read(k, 0, -1)
	if string(got) != "abZ" {
		t.Fatalf("got %q want abZ", got)
	}
}

func TestTxnBytes(t *testing.T) {
	txn := NewTxn().Write(0, make([]byte, 100)).SetXattr("x", make([]byte, 20)).OmapSet("k", make([]byte, 5))
	if txn.Bytes() != 125 {
		t.Fatalf("Bytes=%d want 125", txn.Bytes())
	}
	if NewTxn().Empty() != true || txn.Empty() {
		t.Fatal("Empty wrong")
	}
}

func TestUsageAccounting(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull(make([]byte, 1000)).SetXattr("name", make([]byte, 46)))
	u := s.Usage()
	if u.Objects != 1 || u.Data != 1000 {
		t.Fatalf("usage = %+v", u)
	}
	if u.Metadata != PerObjectOverhead+4+46 {
		t.Fatalf("metadata = %d", u.Metadata)
	}
	if u.Physical != 1000 {
		t.Fatalf("physical = %d without compression", u.Physical)
	}
	if u.Total() != u.Physical+u.Metadata {
		t.Fatal("Total mismatch")
	}
}

func TestUsageWithCompression(t *testing.T) {
	s := New(WithSizeFn(compressfs.Default()))
	zeros := make([]byte, 64<<10)
	s.Apply(k, NewTxn().WriteFull(zeros))
	u := s.Usage()
	if u.Physical >= 1024 {
		t.Fatalf("zeros compressed to %d bytes, expected <1KB", u.Physical)
	}
	// Overwrite with incompressible data: cache must invalidate.
	data := make([]byte, 64<<10)
	x := uint32(123456789)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	s.Apply(k, NewTxn().WriteFull(data))
	u = s.Usage()
	if u.Physical < 60<<10 {
		t.Fatalf("incompressible data reported %d bytes (stale cache?)", u.Physical)
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	s.Apply(Key{Pool: 2, OID: "b"}, NewTxn().Create())
	s.Apply(Key{Pool: 1, OID: "z"}, NewTxn().Create())
	s.Apply(Key{Pool: 1, OID: "a"}, NewTxn().Create())
	keys := s.Keys()
	want := []Key{{1, "a"}, {1, "z"}, {2, "b"}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestClear(t *testing.T) {
	s := New()
	s.Apply(k, NewTxn().WriteFull([]byte("x")))
	s.Clear()
	if u := s.Usage(); u.Objects != 0 {
		t.Fatalf("usage after clear: %+v", u)
	}
}

func TestQuickWriteReadConsistency(t *testing.T) {
	s := New()
	prop := func(off uint16, data []byte) bool {
		key := Key{Pool: 9, OID: "q"}
		s.Apply(key, NewTxn().Delete())
		if err := s.Apply(key, NewTxn().Write(int64(off), data)); err != nil {
			return false
		}
		got, err := s.Read(key, int64(off), int64(len(data)))
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return true
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
