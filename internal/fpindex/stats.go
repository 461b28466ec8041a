package fpindex

// Stats is a point-in-time snapshot of one index (or, via Add, a sum over
// several). Counters are cumulative since creation.
type Stats struct {
	Lookups    int64
	Inserts    int64
	Deletes    int64
	MemHits    int64
	Flushes    int64
	FlushBytes int64

	BloomChecks    int64
	BloomNegatives int64
	BloomFalsePos  int64
	AbsentProbes   int64
	EstFPSum       float64

	CacheHits   int64
	CacheMisses int64
	CacheBytes  int64

	Compactions     int64
	CompactionBytes int64

	ReadBytes  int64
	WriteBytes int64

	Recoveries   int64
	ReplayedRecs int64

	MemtableBytes int64
	WALBytes      int64
	TableBytes    int64
	Tables        int
	Levels        int
	LevelTables   []int
	Entries       int64 // table + memtable records (duplicates across runs count once each)
}

// ObservedFP is the measured bloom false-positive rate: of the probes
// against tables that did not hold the key, how many the filter passed.
func (s Stats) ObservedFP() float64 {
	if s.AbsentProbes == 0 {
		return 0
	}
	return float64(s.BloomFalsePos) / float64(s.AbsentProbes)
}

// EstimatedFP is the probe-weighted average of the tables' design
// false-positive estimates over the same absent probes.
func (s Stats) EstimatedFP() float64 {
	if s.AbsentProbes == 0 {
		return 0
	}
	return s.EstFPSum / float64(s.AbsentProbes)
}

// CacheHitRatio is block-cache hits over all block accesses.
func (s Stats) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Add accumulates o into s (cluster-wide aggregation across OSD indexes).
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.MemHits += o.MemHits
	s.Flushes += o.Flushes
	s.FlushBytes += o.FlushBytes
	s.BloomChecks += o.BloomChecks
	s.BloomNegatives += o.BloomNegatives
	s.BloomFalsePos += o.BloomFalsePos
	s.AbsentProbes += o.AbsentProbes
	s.EstFPSum += o.EstFPSum
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytes += o.CacheBytes
	s.Compactions += o.Compactions
	s.CompactionBytes += o.CompactionBytes
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.Recoveries += o.Recoveries
	s.ReplayedRecs += o.ReplayedRecs
	s.MemtableBytes += o.MemtableBytes
	s.WALBytes += o.WALBytes
	s.TableBytes += o.TableBytes
	s.Tables += o.Tables
	if o.Levels > s.Levels {
		s.Levels = o.Levels
	}
	for i, n := range o.LevelTables {
		for len(s.LevelTables) <= i {
			s.LevelTables = append(s.LevelTables, 0)
		}
		s.LevelTables[i] += n
	}
	s.Entries += o.Entries
}

// Stats snapshots the index's counters and current structure.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.st
	s.CacheBytes = int64(x.cache.bytes)
	s.MemtableBytes = int64(x.mem.bytes)
	s.WALBytes = int64(x.walBytes)
	s.Entries = int64(x.mem.len())
	for _, lvl := range x.levels {
		s.LevelTables = append(s.LevelTables, len(lvl))
		s.Tables += len(lvl)
		for _, t := range lvl {
			s.TableBytes += int64(t.bytes)
			s.Entries += int64(len(t.keys))
		}
	}
	s.Levels = len(s.LevelTables)
	return s
}
