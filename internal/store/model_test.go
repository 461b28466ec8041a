package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Model-based test: random transaction sequences applied to the Store must
// agree with a trivial reference model at every step. This is the deepest
// correctness check for the transactional object store — everything above
// it (replication, dedup metadata, EC shards) assumes these semantics.

// modelObject is the reference implementation.
type modelObject struct {
	data    []byte
	xattr   map[string]string
	omap    map[string]string
	punched int64
	version uint64
}

type model struct {
	objects map[Key]*modelObject
}

func newModel() *model { return &model{objects: make(map[Key]*modelObject)} }

func (m *model) apply(k Key, t *Txn) {
	obj := m.objects[k]
	for _, op := range t.Ops {
		if op.Kind == OpDelete {
			delete(m.objects, k)
			obj = nil
			continue
		}
		if obj == nil {
			obj = &modelObject{xattr: map[string]string{}, omap: map[string]string{}}
			m.objects[k] = obj
		}
		switch op.Kind {
		case OpWrite:
			end := op.Off + int64(len(op.Data))
			for int64(len(obj.data)) < end {
				obj.data = append(obj.data, 0)
			}
			copy(obj.data[op.Off:], op.Data)
		case OpWriteFull:
			obj.data = append([]byte(nil), op.Data...)
		case OpTruncate:
			n := op.Off
			if n < 0 {
				n = 0
			}
			for int64(len(obj.data)) < n {
				obj.data = append(obj.data, 0)
			}
			obj.data = obj.data[:n]
		case OpZero:
			end := op.Off + op.Len
			if end > int64(len(obj.data)) {
				end = int64(len(obj.data))
			}
			for i := op.Off; i >= 0 && i < end; i++ {
				obj.data[i] = 0
			}
		case OpSetXattr:
			obj.xattr[op.Name] = string(op.Value)
		case OpOmapSet:
			obj.omap[op.Name] = string(op.Value)
		case OpOmapRm:
			delete(obj.omap, op.Name)
		case OpCreate:
		}
	}
	if obj != nil && t.version != 0 {
		obj.version = t.version
	}
}

// readInto is the reference for Store.ReadInto: fill dst from off, stop at
// the object's end, touch nothing when the object is missing.
func (m *model) readInto(k Key, off int64, dst []byte) (n int, ok bool) {
	obj, ok := m.objects[k]
	if !ok || off < 0 || off >= int64(len(obj.data)) {
		return 0, ok
	}
	return copy(dst, obj.data[off:]), true
}

// checkReadInto compares one destination-passing read against the model,
// including that bytes of dst beyond the count returned keep their sentinel.
func checkReadInto(t *testing.T, step int, st *Store, m *model, k Key, off int64, dstLen int) {
	t.Helper()
	got := bytes.Repeat([]byte{0xEE}, dstLen)
	want := bytes.Repeat([]byte{0xEE}, dstLen)
	wantN, wantOK := m.readInto(k, off, want)
	n, err := st.ReadInto(k, off, got)
	if (err == nil) != wantOK || (err != nil && err != ErrNotFound) {
		t.Fatalf("step %d: ReadInto(off %d, %d bytes): err %v, model has object: %v", step, off, dstLen, err, wantOK)
	}
	if n != wantN || !bytes.Equal(got, want) {
		t.Fatalf("step %d: ReadInto(off %d, %d bytes) = %d bytes, want %d; buffers equal: %v", step, off, dstLen, n, wantN, bytes.Equal(got, want))
	}
}

// randomTxn builds a random transaction of 1-4 ops.
func randomTxn(rng *rand.Rand) *Txn {
	t := NewTxn()
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			buf := make([]byte, rng.Intn(300))
			rng.Read(buf)
			t.Write(int64(rng.Intn(1000)), buf)
		case 1:
			buf := make([]byte, rng.Intn(500))
			rng.Read(buf)
			t.WriteFull(buf)
		case 2:
			t.Truncate(int64(rng.Intn(1200)))
		case 3:
			t.Zero(int64(rng.Intn(1000)), int64(rng.Intn(400)))
		case 4:
			t.SetXattr(fmt.Sprintf("x%d", rng.Intn(4)), []byte{byte(rng.Intn(256))})
		case 5:
			t.OmapSet(fmt.Sprintf("k%d", rng.Intn(6)), []byte{byte(rng.Intn(256))})
		case 6:
			t.OmapRm(fmt.Sprintf("k%d", rng.Intn(6)))
		case 7:
			if rng.Intn(4) == 0 { // deletes are rarer
				t.Delete()
			} else {
				t.Create()
			}
		}
	}
	return t
}

func compareObject(t *testing.T, step int, st *Store, m *model, k Key) {
	t.Helper()
	want, wantOK := m.objects[k]
	if st.Exists(k) != wantOK {
		t.Fatalf("step %d: existence mismatch for %v (model %v)", step, k, wantOK)
	}
	if !wantOK {
		if v := st.Version(k); v != 0 {
			t.Fatalf("step %d: absent object has version %d", step, v)
		}
		return
	}
	if snap, _ := st.Snapshot(k); st.Version(k) != want.version || snap.Version != want.version {
		t.Fatalf("step %d: version %d, snapshot's %d, model %d", step, st.Version(k), snap.Version, want.version)
	}
	got, err := st.Read(k, 0, -1)
	if err != nil {
		t.Fatalf("step %d: read: %v", step, err)
	}
	if len(got) == 0 {
		got = nil
	}
	wantData := want.data
	if len(wantData) == 0 {
		wantData = nil
	}
	if !bytes.Equal(got, wantData) {
		t.Fatalf("step %d: data mismatch (%d vs %d bytes)", step, len(got), len(wantData))
	}
	if sz, _ := st.Size(k); sz != int64(len(want.data)) {
		t.Fatalf("step %d: size %d != %d", step, sz, len(want.data))
	}
	for name, v := range want.xattr {
		got, err := st.GetXattr(k, name)
		if err != nil || string(got) != v {
			t.Fatalf("step %d: xattr %s mismatch", step, name)
		}
	}
	for name, v := range want.omap {
		got, err := st.OmapGet(k, name)
		if err != nil || string(got) != v {
			t.Fatalf("step %d: omap %s mismatch", step, name)
		}
	}
	keys, _ := st.OmapList(k, 0)
	if len(keys) != len(want.omap) {
		t.Fatalf("step %d: omap key count %d != %d", step, len(keys), len(want.omap))
	}
}

func TestModelBasedTransactions(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := New()
			m := newModel()
			keys := []Key{{1, "a"}, {1, "b"}, {2, "a"}}
			for step := 0; step < 500; step++ {
				k := keys[rng.Intn(len(keys))]
				txn := randomTxn(rng)
				if step%3 != 0 { // a third of the txns leave the version alone
					txn.Stamp(uint64(step + 1))
				}
				if err := st.Apply(k, txn); err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
				m.apply(k, txn)
				compareObject(t, step, st, m, k)
			}
			// Final sweep over all keys, plus usage sanity.
			for _, k := range keys {
				compareObject(t, 500, st, m, k)
			}
			u := st.Usage()
			if u.Objects != len(m.objects) {
				t.Fatalf("usage objects %d != model %d", u.Objects, len(m.objects))
			}
			if u.Physical > u.Data {
				t.Fatalf("physical %d exceeds logical %d (punch accounting)", u.Physical, u.Data)
			}
		})
	}
}

func TestModelRandomReads(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := New()
	m := newModel()
	k := Key{3, "r"}
	checkReadInto(t, -1, st, m, k, 0, 16) // never written: ErrNotFound, dst untouched
	for step := 0; step < 200; step++ {
		txn := randomTxn(rng)
		st.Apply(k, txn)
		m.apply(k, txn)
		// Destination-passing reads, on a missing object too: dst shorter
		// than, equal to and longer than what the object holds from off, and
		// off at and past the end.
		size := 0
		if obj, ok := m.objects[k]; ok {
			size = len(obj.data)
		}
		off := rng.Intn(size + 1)
		for _, c := range []struct{ off, dstLen int }{
			{off, (size - off) / 2}, {off, size - off}, {off, size - off + 9},
			{0, size}, {size, 16}, {size + 7, 16}, {0, 0},
		} {
			checkReadInto(t, step, st, m, k, int64(c.off), c.dstLen)
		}
		if obj, ok := m.objects[k]; ok && len(obj.data) > 0 {
			off := int64(rng.Intn(len(obj.data)))
			length := int64(rng.Intn(len(obj.data)))
			got, err := st.Read(k, off, length)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			end := off + length
			if end > int64(len(obj.data)) {
				end = int64(len(obj.data))
			}
			want := obj.data[off:end]
			if len(want) == 0 {
				want = nil
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: range read mismatch at [%d,+%d)", step, off, length)
			}
		}
	}
}

// TestExtendingWriteAfterTruncate is the sequence a store that keeps spare
// capacity can get wrong: the bytes a Truncate cut off are still in the
// backing array, and an extending write that starts beyond the new end must
// expose the gap as zeros, not as what used to be there.
func TestExtendingWriteAfterTruncate(t *testing.T) {
	st, m := New(), newModel()
	k := Key{1, "grow"}
	for _, txn := range []*Txn{
		NewTxn().Write(0, bytes.Repeat([]byte{0xFF}, 64<<10)),
		NewTxn().Truncate(8 << 10),
		NewTxn().Write(32<<10, bytes.Repeat([]byte{0xAA}, 4<<10)),
		// and once more within the capacity the first write left behind
		NewTxn().Truncate(33<<10).Write(40<<10, []byte{1, 2, 3}),
	} {
		if err := st.Apply(k, txn); err != nil {
			t.Fatal(err)
		}
		m.apply(k, txn)
		compareObject(t, 0, st, m, k)
	}
	got, err := st.Read(k, 8<<10, 24<<10)
	if err != nil || !bytes.Equal(got, make([]byte, 24<<10)) {
		t.Fatalf("bytes [8K, 32K) after truncate + extending write are not zeros (err %v)", err)
	}
	want := int64(len(m.objects[k].data))
	if u := st.Usage(); u.Data != want || u.Physical != want {
		t.Fatalf("usage data %d physical %d, model %d", u.Data, u.Physical, want)
	}
	snap, err := st.Snapshot(k)
	if err != nil || int64(snap.PayloadBytes()) != want {
		t.Fatalf("payload bytes %d (err %v), model %d", snap.PayloadBytes(), err, want)
	}
}

// TestAppendsGrowGeometrically: filling an object by fixed-size appends must
// not reallocate and copy it on every append (16 appends of 64 KiB did
// 8.5 MiB of that; doubling capacity does 2 MiB).
func TestAppendsGrowGeometrically(t *testing.T) {
	st := New()
	k := Key{1, "fill"}
	block := make([]byte, 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < 1<<20; off += int64(len(block)) {
		if err := st.Apply(k, NewTxn().Write(off, block)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 3<<20 {
		t.Fatalf("filling a 1 MiB object by 64 KiB appends allocated %d bytes, want under 3 MiB", grew)
	}
	if n, _ := st.Size(k); n != 1<<20 {
		t.Fatalf("object is %d bytes", n)
	}
}

// --- The sharing rule ---------------------------------------------------------

var sharedKey = Key{7, "shared"}

// holder is a store and the model of what it alone was told.
type holder struct {
	st *Store
	m  *model
}

func newHolder() holder { return holder{New(), newModel()} }

func (h holder) apply(t *testing.T, txn *Txn) {
	t.Helper()
	if err := h.st.Apply(sharedKey, txn); err != nil {
		t.Fatal(err)
	}
	h.m.apply(sharedKey, txn)
}

// copyOf returns a deep copy of the model's object: what a snapshot taken
// now must keep showing.
func (m *model) copyOf(k Key) *modelObject {
	o := m.objects[k]
	cp := &modelObject{data: append([]byte(nil), o.data...), xattr: map[string]string{}, omap: map[string]string{}, version: o.version}
	for n, v := range o.xattr {
		cp.xattr[n] = v
	}
	for n, v := range o.omap {
		cp.omap[n] = v
	}
	return cp
}

// sharedFixture is one way for several holders to end up aliasing the same
// payloads: edited is the one the case then writes to, others must not
// notice, and neither must snap (whose contents snapWas recorded).
type sharedFixture struct {
	edited  holder
	others  []holder
	snap    *Object
	snapWas *modelObject
}

// sharedTxn builds the object every fixture starts from. The data slice has
// spare capacity, so an extending write could land in the adopted array.
func sharedTxn() *Txn {
	data := make([]byte, 4096, 8192)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	return NewTxn().WriteFull(data).SetXattr("x", []byte("xattr-value")).OmapSet("o", []byte("omap-value")).Stamp(7)
}

var sharedFixtures = []struct {
	name  string
	build func(t *testing.T) sharedFixture
}{
	{"one Txn applied to two stores", func(t *testing.T) sharedFixture {
		a, b, txn := newHolder(), newHolder(), sharedTxn()
		a.apply(t, txn)
		b.apply(t, txn)
		return sharedFixture{edited: a, others: []holder{b}}
	}},
	{"snapshot, then write to the source", func(t *testing.T) sharedFixture {
		a := newHolder()
		a.apply(t, sharedTxn())
		snap, _ := a.st.Snapshot(sharedKey)
		return sharedFixture{edited: a, snap: snap, snapWas: a.m.copyOf(sharedKey)}
	}},
	{"snapshot of private data, then write to the source", func(t *testing.T) sharedFixture {
		a := newHolder()
		a.apply(t, sharedTxn())
		a.apply(t, NewTxn().Write(0, []byte{9})) // moves Data to an array of its own
		snap, _ := a.st.Snapshot(sharedKey)
		return sharedFixture{edited: a, snap: snap, snapWas: a.m.copyOf(sharedKey)}
	}},
	{"one snapshot installed on two stores, then write to one", func(t *testing.T) sharedFixture {
		src, a, b := newHolder(), newHolder(), newHolder()
		src.apply(t, sharedTxn())
		snap, _ := src.st.Snapshot(sharedKey)
		for _, h := range []holder{a, b} {
			h.st.Install(sharedKey, snap)
			h.m.objects[sharedKey] = src.m.copyOf(sharedKey)
		}
		return sharedFixture{edited: a, others: []holder{src, b}, snap: snap, snapWas: src.m.copyOf(sharedKey)}
	}},
}

var sharedEdits = []struct {
	name string
	txn  func() *Txn
}{
	{"OpWrite", func() *Txn { return NewTxn().Write(100, []byte("scribble")) }},
	{"OpZero", func() *Txn { return NewTxn().Zero(10, 500) }},
	{"extending write into spare capacity", func() *Txn { return NewTxn().Write(5000, []byte{1, 2, 3}) }},
	{"truncate-shrink then extending write", func() *Txn { return NewTxn().Truncate(1000).Write(2000, []byte{4, 5, 6}) }},
	{"truncate-grow", func() *Txn { return NewTxn().Truncate(6000) }},
	{"replace xattr and omap values", func() *Txn {
		return NewTxn().SetXattr("x", []byte("new")).OmapSet("o", []byte("new")).OmapRm("o").OmapSet("o2", nil)
	}},
	{"WriteFull", func() *Txn { return NewTxn().WriteFull([]byte("replaced")) }},
	{"delete", func() *Txn { return NewTxn().Delete() }},
}

// TestSharingRule: however holders came to alias one payload, an edit
// through one of them is seen by that one alone. Every holder is compared
// with a model that was told only what that holder was told.
func TestSharingRule(t *testing.T) {
	for _, fx := range sharedFixtures {
		for _, ed := range sharedEdits {
			t.Run(fx.name+"/"+ed.name, func(t *testing.T) {
				f := fx.build(t)
				f.edited.apply(t, ed.txn())
				for i, h := range append([]holder{f.edited}, f.others...) {
					compareObject(t, i, h.st, h.m, sharedKey)
					h.st.CheckShared()
				}
				if f.snap == nil {
					return
				}
				if string(f.snap.Data) != string(f.snapWas.data) || f.snap.Version != f.snapWas.version || len(f.snap.Xattr) != 1 || len(f.snap.Omap) != 1 ||
					string(f.snap.Xattr["x"]) != f.snapWas.xattr["x"] || string(f.snap.Omap["o"]) != f.snapWas.omap["o"] {
					t.Fatal("the snapshot changed when a store holding its payloads was written to")
				}
				late := newHolder() // and it still installs what it held
				late.st.Install(sharedKey, f.snap)
				late.m.objects[sharedKey] = f.snapWas
				compareObject(t, 9, late.st, late.m, sharedKey)
			})
		}
	}
}

// TestReadResultIsCallerOwned: Read and ReadInto copy out, so the caller may
// write to what they return; Borrow's result is read-only but keeps its
// contents when the object is written to afterwards, whether it lent the
// stored array (whole range, or data already shared) or copied (partial
// range of private data).
func TestReadResultIsCallerOwned(t *testing.T) {
	st := New()
	k := Key{1, "r"}
	st.Apply(k, NewTxn().WriteFull([]byte("immutable")))
	got, _ := st.Read(k, 0, -1)
	got[0] = 'X'
	dst := make([]byte, 4)
	st.ReadInto(k, 0, dst)
	dst[1] = 'Y'
	if again, _ := st.Read(k, 0, -1); string(again) != "immutable" {
		t.Fatalf("writing to a Read result changed the store: %q", again)
	}
	st.CheckShared()

	for _, shared := range []bool{true, false} {
		for _, whole := range []bool{true, false} {
			st.Apply(k, NewTxn().WriteFull([]byte("0123456789")))
			if !shared {
				st.Apply(k, NewTxn().Write(0, []byte("0"))) // private array from here on
			}
			length := int64(-1)
			if !whole {
				length = 4
			}
			lent, err := st.Borrow(k, 2, length)
			if err != nil {
				t.Fatal(err)
			}
			was := string(lent)
			st.Apply(k, NewTxn().Write(3, []byte("zz")).Zero(5, 2))
			if string(lent) != was {
				t.Fatalf("shared=%v whole=%v: borrowed bytes %q became %q after a write", shared, whole, was, lent)
			}
			if now, _ := st.Read(k, 0, -1); string(now) != "012zz\x00\x00789" {
				t.Fatalf("shared=%v whole=%v: object reads %q after the write", shared, whole, now)
			}
			st.CheckShared()
		}
	}
	if _, err := st.Borrow(Key{1, "absent"}, 0, -1); err != ErrNotFound {
		t.Fatalf("Borrow of a missing object: %v", err)
	}
}
