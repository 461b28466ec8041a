package sim

import "sync"

// Label is a name resolved once into a process-wide table: a resource's
// name, or a trace span's kind, pool, placement group, class or tenant. A
// hot path carries and compares the integer; the text comes back only when
// someone reads it. The zero Label is the empty name.
type Label uint32

// labels is the table behind Label. It only grows, and holds each distinct
// name once, so it is bounded by the names a process ever uses.
var labels = struct {
	sync.RWMutex
	ids   map[string]Label
	names []string
}{ids: map[string]Label{"": 0}, names: []string{""}}

// Intern returns name's Label, adding name to the table on first use. It
// takes a lock: call it where the name's owner is built, not per operation.
func Intern(name string) Label {
	labels.RLock()
	l, ok := labels.ids[name]
	labels.RUnlock()
	if ok {
		return l
	}
	labels.Lock()
	defer labels.Unlock()
	if l, ok := labels.ids[name]; ok {
		return l
	}
	l = Label(len(labels.names))
	labels.ids[name] = l
	labels.names = append(labels.names, name)
	return l
}

// String returns the name l was interned from.
func (l Label) String() string { return LabelNames()[l] }

// LabelNames returns the table as of now, indexed by Label, for a reader
// that resolves many labels at once under one lock. It is read-only.
// Entries never change, so the slice stays valid for every Label interned
// before the call.
func LabelNames() []string {
	labels.RLock()
	defer labels.RUnlock()
	return labels.names
}
