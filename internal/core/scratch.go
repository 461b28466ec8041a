// weak needs Go 1.24; go.mod stays at 1.22 because bench/go.mod, which
// requires this module, says 1.22. The line states a toolchain floor for this
// file — there is no other implementation for it to select.
//
//go:build go1.24

package core

import "weak"

// scratchPool holds the idle buffers of Store.readPadded. It grows to the
// most reads ever in flight at once, which a drain's agents set. trim keeps
// that peak from staying resident: the buffers past what the pool held
// before the drain are held weakly, so a get still takes one the garbage
// collector has not reclaimed, but none outlives the next GC. Dropped
// outright, every drain would allocate its peak anew.
type scratchPool struct {
	idle  [][]byte
	spare []weak.Pointer[[]byte]
}

// get returns a buffer of n bytes, an idle one if one is large enough.
func (sp *scratchPool) get(n int64) []byte {
	var buf []byte
	if k := len(sp.idle) - 1; k >= 0 {
		buf, sp.idle = sp.idle[k], sp.idle[:k]
	}
	for k := len(sp.spare) - 1; buf == nil && k >= 0; k-- {
		if held := sp.spare[k].Value(); held != nil {
			buf = *held
		}
		sp.spare = sp.spare[:k]
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

// put returns a buffer get handed out, once nothing started with it is
// still running.
func (sp *scratchPool) put(buf []byte) {
	poison(buf[:cap(buf)])
	sp.idle = append(sp.idle, buf)
}

// trim keeps n idle buffers and holds the rest weakly.
func (sp *scratchPool) trim(n int) {
	if n >= len(sp.idle) {
		return
	}
	for _, buf := range sp.idle[n:] {
		held := new([]byte)
		*held = buf
		sp.spare = append(sp.spare, weak.Make(held))
	}
	clear(sp.idle[n:])
	sp.idle = sp.idle[:n]
}
