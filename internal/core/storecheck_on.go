//go:build storecheck

package core

// checkNames makes every name memo hit also run SHA-256 and panic when the two
// disagree: the aliasing guard for the memo's kept bytes (names.go).
const checkNames = true

// poison overwrites a recycled scratch buffer (scratchPool.put), so that
// anything still holding it, or a slice of it, sees its bytes change: the
// shared-payload sweep or the name memo's check then panics.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = 0xa5
	}
}
