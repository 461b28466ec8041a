//go:build !storecheck

package core

// checkNames is off: a name memo hit is trusted (see storecheck_on.go).
const checkNames = false
