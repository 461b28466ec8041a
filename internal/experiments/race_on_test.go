//go:build race

package experiments

// raceBuild: see race_off_test.go.
const raceBuild = true
