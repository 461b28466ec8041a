// Package crush implements CRUSH-style pseudo-random placement: the
// decentralized hash mapping that lets every client compute object locations
// without a metadata server (paper §2.1, Figure 2-(b)). The implementation
// follows Ceph's architecture: objects hash to placement groups (PGs), and
// each PG maps onto an ordered set of OSDs by straw2 selection over a
// two-level hierarchy (host → OSD) with hosts as the failure domain, so no
// two replicas of a PG share a host.
package crush

import (
	"fmt"
	"math"
	"sort"

	"dedupstore/internal/xxh"
)

// OSD describes one object storage device in the cluster map.
type OSD struct {
	ID     int
	Host   string
	Weight float64
	// Up means the OSD is reachable; In means it participates in placement.
	// An OSD that fails is first marked down (PGs degrade) and later marked
	// out (PGs remap and recovery begins), mirroring Ceph's two-phase
	// failure handling.
	Up bool
	In bool
}

// Map is a versioned cluster map. Mutations bump Epoch; placements are pure
// functions of (map contents, pool seed, object id), so any client holding
// the same epoch computes identical placements.
type Map struct {
	Epoch int
	osds  map[int]*OSD

	// pgCache memoizes MapPG results. Placement is a pure function of (map
	// contents, pg, n) and every mutation bumps Epoch, so cached entries stay
	// valid until the epoch moves; callers must treat returned slices as
	// immutable.
	cacheEpoch int
	pgCache    map[pgCacheKey][]int
}

type pgCacheKey struct {
	pg PG
	n  int
}

// NewMap returns an empty cluster map at epoch 1.
func NewMap() *Map {
	return &Map{Epoch: 1, osds: make(map[int]*OSD)}
}

// Clone returns a deep copy (same epoch).
func (m *Map) Clone() *Map {
	c := &Map{Epoch: m.Epoch, osds: make(map[int]*OSD, len(m.osds))}
	for id, o := range m.osds {
		co := *o
		c.osds[id] = &co
	}
	return c
}

// AddOSD inserts an OSD (up+in) and bumps the epoch.
func (m *Map) AddOSD(id int, host string, weight float64) error {
	if _, ok := m.osds[id]; ok {
		return fmt.Errorf("crush: osd.%d already exists", id)
	}
	if weight <= 0 {
		return fmt.Errorf("crush: osd.%d invalid weight %v", id, weight)
	}
	m.osds[id] = &OSD{ID: id, Host: host, Weight: weight, Up: true, In: true}
	m.Epoch++
	return nil
}

// SetUp marks an OSD up/down.
func (m *Map) SetUp(id int, up bool) {
	if o, ok := m.osds[id]; ok && o.Up != up {
		o.Up = up
		m.Epoch++
	}
}

// SetIn marks an OSD in/out of the placement set.
func (m *Map) SetIn(id int, in bool) {
	if o, ok := m.osds[id]; ok && o.In != in {
		o.In = in
		m.Epoch++
	}
}

// Lookup returns the OSD record (copy) and whether it exists.
func (m *Map) Lookup(id int) (OSD, bool) {
	o, ok := m.osds[id]
	if !ok {
		return OSD{}, false
	}
	return *o, true
}

// OSDs returns all OSD ids in ascending order.
func (m *Map) OSDs() []int {
	ids := make([]int, 0, len(m.osds))
	for id := range m.osds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// InOSDs returns ids of OSDs that are in (placement candidates), ascending.
func (m *Map) InOSDs() []int {
	var ids []int
	for id, o := range m.osds {
		if o.In {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// UpOSDs returns ids of OSDs that are up, ascending.
func (m *Map) UpOSDs() []int {
	var ids []int
	for id, o := range m.osds {
		if o.Up {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Hosts returns host names with at least one in-OSD, sorted.
func (m *Map) Hosts() []string {
	set := map[string]bool{}
	for _, o := range m.osds {
		if o.In {
			set[o.Host] = true
		}
	}
	hosts := make([]string, 0, len(set))
	for h := range set {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// PG identifies a placement group within a pool.
type PG struct {
	Pool uint64
	Seq  uint32
}

func (pg PG) String() string { return fmt.Sprintf("%d.%x", pg.Pool, pg.Seq) }

// PGForObject computes the PG an object id belongs to.
func PGForObject(pool uint64, pgNum uint32, oid string) PG {
	if pgNum == 0 {
		pgNum = 1
	}
	h := xxh.HashString(pool*0x9e37+0x79b9, oid)
	return PG{Pool: pool, Seq: uint32(h % uint64(pgNum))}
}

// straw2Draw computes the straw2 "length" for an item: ln(u)/w, maximized.
// Items with higher weight win proportionally more often, and removing an
// item only moves the PGs that item held — CRUSH's minimal-movement
// property.
func straw2Draw(pg PG, trial uint64, itemKey uint64, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	h := xxh.HashWords(0x5ca1ab1e, pg.Pool, uint64(pg.Seq), trial, itemKey)
	// Map to (0,1]: use the top 53 bits, never zero.
	u := (float64(h>>11) + 1) / float64(1<<53)
	return math.Log(u) / weight
}

// MapPG returns the ordered OSD set (size up to n) for a PG. Placement
// chooses distinct hosts first (failure-domain separation) and one OSD
// within each chosen host. Only in-OSDs are candidates; if there are fewer
// eligible hosts than n, remaining slots fall back to distinct OSDs
// regardless of host.
//
// Results are memoized per epoch: the straw2 draws are pure, so repeated
// resolutions of the same PG (every I/O resolves its placement) hit the
// cache until a map mutation bumps the epoch. The returned slice is shared —
// callers must not modify it.
func (m *Map) MapPG(pg PG, n int) []int {
	if m.cacheEpoch != m.Epoch || m.pgCache == nil {
		m.cacheEpoch = m.Epoch
		m.pgCache = make(map[pgCacheKey][]int)
	}
	key := pgCacheKey{pg: pg, n: n}
	if ids, ok := m.pgCache[key]; ok {
		return ids
	}
	ids := m.mapPG(pg, n)
	m.pgCache[key] = ids
	return ids
}

func (m *Map) mapPG(pg PG, n int) []int {
	type hostInfo struct {
		name   string
		osds   []*OSD
		weight float64
	}
	byHost := map[string]*hostInfo{}
	for _, id := range m.InOSDs() {
		o := m.osds[id]
		hi := byHost[o.Host]
		if hi == nil {
			hi = &hostInfo{name: o.Host}
			byHost[o.Host] = hi
		}
		hi.osds = append(hi.osds, o)
		hi.weight += o.Weight
	}
	hosts := make([]*hostInfo, 0, len(byHost))
	for _, hi := range byHost {
		hosts = append(hosts, hi)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].name < hosts[j].name })
	if len(hosts) == 0 {
		return nil
	}

	var result []int
	usedHost := map[string]bool{}
	usedOSD := map[int]bool{}

	pickOSD := func(cands []*OSD, trial uint64) *OSD {
		var best *OSD
		bestDraw := math.Inf(-1)
		for _, o := range cands {
			if usedOSD[o.ID] {
				continue
			}
			d := straw2Draw(pg, trial, uint64(o.ID)+1<<32, o.Weight)
			if d > bestDraw {
				bestDraw, best = d, o
			}
		}
		return best
	}

	for r := 0; len(result) < n; r++ {
		if r > n+len(m.osds) { // all candidates exhausted
			break
		}
		// Choose a host by straw2 among unused hosts.
		var bestHost *hostInfo
		bestDraw := math.Inf(-1)
		for _, hi := range hosts {
			if usedHost[hi.name] {
				continue
			}
			d := straw2Draw(pg, uint64(r), xxh.HashString(7, hi.name), hi.weight)
			if d > bestDraw {
				bestDraw, bestHost = d, hi
			}
		}
		if bestHost == nil {
			// Failure-domain fallback: pick any unused OSD cluster-wide.
			var all []*OSD
			for _, hi := range hosts {
				all = append(all, hi.osds...)
			}
			o := pickOSD(all, uint64(r)+1<<16)
			if o == nil {
				break
			}
			usedOSD[o.ID] = true
			result = append(result, o.ID)
			continue
		}
		usedHost[bestHost.name] = true
		if o := pickOSD(bestHost.osds, uint64(r)); o != nil {
			usedOSD[o.ID] = true
			result = append(result, o.ID)
		}
	}
	return result
}

// ActingSet returns the up members of a PG's mapping, preserving order: the
// replicas that can serve I/O right now. The first element is the primary.
func (m *Map) ActingSet(pg PG, n int) []int {
	var acting []int
	for _, id := range m.MapPG(pg, n) {
		if o, ok := m.osds[id]; ok && o.Up {
			acting = append(acting, id)
		}
	}
	return acting
}
