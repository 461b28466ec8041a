package store

import "sort"

// extent is a half-open byte range [start, end).
type extent struct{ start, end int64 }

// extentSet is a sorted, non-overlapping set of extents. It tracks punched
// (hole) ranges within an object's data.
type extentSet []extent

// add inserts [start, end), merging overlaps.
func (s extentSet) add(start, end int64) extentSet {
	if start >= end {
		return s
	}
	out := s[:0:0]
	for _, e := range s {
		switch {
		case e.end < start || e.start > end:
			out = append(out, e)
		default: // overlap or adjacency: merge
			if e.start < start {
				start = e.start
			}
			if e.end > end {
				end = e.end
			}
		}
	}
	out = append(out, extent{start, end})
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// sub removes [start, end) from the set.
func (s extentSet) sub(start, end int64) extentSet {
	if start >= end {
		return s
	}
	var out extentSet
	for _, e := range s {
		if e.end <= start || e.start >= end {
			out = append(out, e)
			continue
		}
		if e.start < start {
			out = append(out, extent{e.start, start})
		}
		if e.end > end {
			out = append(out, extent{end, e.end})
		}
	}
	return out
}

// clamp trims the set to [0, limit).
func (s extentSet) clamp(limit int64) extentSet {
	var out extentSet
	for _, e := range s {
		if e.start >= limit {
			continue
		}
		if e.end > limit {
			e.end = limit
		}
		out = append(out, e)
	}
	return out
}

// total returns the covered byte count.
func (s extentSet) total() int64 {
	var n int64
	for _, e := range s {
		n += e.end - e.start
	}
	return n
}
