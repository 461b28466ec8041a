//go:build !storecheck

package store

// The aliasing guard lives in storecheck_on.go (-tags storecheck). This build
// carries none of it: no checksum is stored and the hooks compile to nothing.
type payloadSums struct{}

func (payloadSums) clone() payloadSums           { return payloadSums{} }
func (o *Object) sumData()                       {}
func (o *Object) sumValue(_, _ string, _ []byte) {}
func (o *Object) forgetValue(_, _ string)        {}
func (o *Object) verifySums(Key)                 {}
