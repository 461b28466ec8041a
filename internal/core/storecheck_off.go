//go:build !storecheck

package core

// checkNames is off: a name memo hit is trusted (see storecheck_on.go).
const checkNames = false

// poison is off: a recycled scratch buffer keeps its bytes (see
// storecheck_on.go).
func poison([]byte) {}
