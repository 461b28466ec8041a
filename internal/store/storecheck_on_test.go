//go:build storecheck

package store

import (
	"strings"
	"testing"
)

// TestStorecheckCatchesScribble: each way of breaking the sharing rule from
// outside the store — writing to a slice after handing it to a Txn, or to one
// the store handed out read-only — is caught at the next verification, and
// the panic names the key and the field.
func TestStorecheckCatchesScribble(t *testing.T) {
	k := Key{1, "victim"}
	build := func() (*Store, []byte, []byte, []byte) {
		st := New()
		data, x, o := []byte("payload-bytes"), []byte("xv"), []byte("ov")
		st.Apply(k, NewTxn().WriteFull(data).SetXattr("x", x).OmapSet("o", o))
		return st, data, x, o
	}
	cases := []struct {
		name     string
		scribble func(st *Store, data, x, o []byte)
		verify   func(st *Store)
		want     string
	}{
		{"WriteFull input reused, sweep", func(_ *Store, data, _, _ []byte) { data[0] ^= 1 }, (*Store).CheckShared, "shared Data"},
		{"WriteFull input reused, next apply", func(_ *Store, data, _, _ []byte) { data[0] ^= 1 },
			func(st *Store) { st.Apply(k, NewTxn().Delete()) }, "shared Data"},
		{"xattr input reused, snapshot", func(_ *Store, _, x, _ []byte) { x[0] ^= 1 },
			func(st *Store) { st.Snapshot(k) }, `xattr "x"`},
		{"omap value from OmapGet written to, install over it", func(st *Store, _, _, _ []byte) {
			v, _ := st.OmapGet(k, "o")
			v[0] ^= 1
		}, func(st *Store) { st.Install(k, &Object{}) }, `omap "o"`},
		{"borrowed span written to", func(st *Store, _, _, _ []byte) {
			st.Apply(k, NewTxn().Write(0, []byte("P"))) // private data: Borrow is what shares it
			lent, _ := st.Borrow(k, 0, -1)
			lent[3] ^= 1
		}, (*Store).CheckShared, "shared Data"},
		{"snapshot written to, install", func(st *Store, _, _, _ []byte) {}, func(st *Store) {
			snap, _ := st.Snapshot(k)
			snap.Data[0] ^= 1
			New().Install(k, snap)
		}, "shared Data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, data, x, o := build()
			st.CheckShared() // clean so far
			c.scribble(st, data, x, o)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, k.String()) || !strings.Contains(msg, c.want) {
					t.Fatalf("want a storecheck panic naming %v and %s, got %q", k, c.want, msg)
				}
			}()
			c.verify(st)
		})
	}
}
