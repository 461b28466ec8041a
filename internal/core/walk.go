package core

import "dedupstore/internal/rados"

// The namespace walk: the one listing of the store that the whole-store
// passes (audit, scrub, GC, the tiering pass, cold eviction) visit. It owns
// what a pass walks and in which order, nothing else: each visitor keeps its
// own reads, retries and error rules. A pool is listed when the walk reaches
// it, and the walk allocates nothing per object.

// eachObject calls visit for every user metadata object in name order,
// skipping the "sys." objects, and stops at the first error visit returns.
func (s *Store) eachObject(visit func(oid string) error) error {
	for _, oid := range s.cluster.ListObjects(s.meta) {
		if IsSystemObject(oid) {
			continue
		}
		if err := visit(oid); err != nil {
			return err
		}
	}
	return nil
}

// eachChunk calls visit for every chunk object, in name order within a pool,
// the warm pool first and then, with tiering on, the cold one; it stops at
// the first error visit returns.
func (s *Store) eachChunk(visit func(pool *rados.Pool, id string) error) error {
	for _, pool := range []*rados.Pool{s.chunk, s.coldChunk} {
		if pool == nil {
			continue
		}
		for _, id := range s.cluster.ListObjects(pool) {
			if err := visit(pool, id); err != nil {
				return err
			}
		}
	}
	return nil
}
