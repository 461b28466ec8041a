package sim

// SetPoints registers h as the handler of every named point (nil removes it).
// h runs on the process that reached the point, so it may Sleep, Go or do I/O
// there: a delay, or a racing operation placed exactly in that window. It
// returns true to end the operation at the point, as a crash would. Only
// tests register a handler, so the product's runs never reach one.
func (e *Engine) SetPoints(h func(p *Proc, at Label, key string) (kill bool)) { e.points = h }

// Point marks a named window in an operation: at names the window and key
// what the operation works on (an object or chunk name). It reports whether
// the handler ended the operation there. With no handler it is one nil
// check: no event, no random draw, no allocation.
func (p *Proc) Point(at Label, key string) bool {
	return p.e.points != nil && p.e.points(p, at, key)
}
