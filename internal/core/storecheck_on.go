//go:build storecheck

package core

// checkNames makes every name memo hit also run SHA-256 and panic when the two
// disagree: the aliasing guard for the memo's kept bytes (names.go).
const checkNames = true
