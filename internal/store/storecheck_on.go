//go:build storecheck

package store

import (
	"fmt"
	"hash/crc32"
	"maps"
)

// The aliasing guard (-tags storecheck; `make storecheck`). The sharing rule
// lets replicas, snapshots and borrowers hold one backing array on the promise
// that nobody writes to it. This build checks the promise: every payload is
// checksummed when an object adopts or lends it, and verified whenever the
// object is next applied to, snapshotted, installed or replaced, and in
// CheckShared's sweep. A mismatch means someone wrote through a slice they
// had handed over or been handed, and panics naming the key and field.
type payloadSums struct {
	data    uint32
	hasData bool // data covers Data (it is shared)
	values  map[valueKey]uint32
}

// valueKey names one xattr or omap value of an object.
type valueKey struct{ field, name string }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s payloadSums) clone() payloadSums {
	s.values = maps.Clone(s.values)
	return s
}

// sumData records Data's checksum while it is shared, and forgets it once
// Data is private again (the store then edits it in place).
func (o *Object) sumData() {
	o.sums.hasData = o.shared
	if o.shared {
		o.sums.data = crc32.Checksum(o.Data, castagnoli)
	}
}

// sumValue records the checksum of a value just adopted.
func (o *Object) sumValue(field, name string, v []byte) {
	if o.sums.values == nil {
		o.sums.values = make(map[valueKey]uint32)
	}
	o.sums.values[valueKey{field, name}] = crc32.Checksum(v, castagnoli)
}

// forgetValue drops the checksum of a value just removed.
func (o *Object) forgetValue(field, name string) { delete(o.sums.values, valueKey{field, name}) }

// verifySums panics if a shared payload no longer matches its checksum.
func (o *Object) verifySums(k Key) {
	if o.sums.hasData && crc32.Checksum(o.Data, castagnoli) != o.sums.data {
		panic(fmt.Sprintf("store: storecheck: %v: shared Data changed under the store", k))
	}
	o.verifyValues(k, "xattr", o.Xattr)
	o.verifyValues(k, "omap", o.Omap)
}

func (o *Object) verifyValues(k Key, field string, values map[string][]byte) {
	for name, v := range values {
		if sum, ok := o.sums.values[valueKey{field, name}]; ok && crc32.Checksum(v, castagnoli) != sum {
			panic(fmt.Sprintf("store: storecheck: %v: %s %q changed under the store", k, field, name))
		}
	}
}
