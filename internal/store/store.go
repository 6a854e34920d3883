// Package store is the service's one content-addressed blob store: a
// byte-budget LRU memory tier over an optional persistent disk tier.
// Both tiers keep their recency in the same LRU index, and the disk
// tier's record format, atomic publication, checksums and restart
// re-indexing serve every caller alike — the result cache, the fleet's
// cell memo and the warm-state checkpoint store.
//
// Keys are content addresses (harness.RunKey, harness.ExperimentKey,
// checkpoint prefixes): equal keys name byte-identical values, so a
// stored value is never stale and re-putting a key only refreshes its
// recency.
package store

import "sync"

// Store is a memory tier over an optional disk tier with one policy:
// Put writes through to both tiers; Get answers from memory, then from
// disk, promoting disk hits into memory. Memory evictions leave the
// disk copy in place and are reported to the owner.
//
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	mem     *lru[[]byte]
	disk    *Disk
	evicted func(key string)
}

// New returns a store whose memory tier holds at most budgetBytes of
// values (<= 0 = unlimited) over disk (nil = memory only). evicted is
// called with each key the memory budget pushes out, after the store's
// lock is released, so it may call back into the store.
func New(budgetBytes int64, disk *Disk, evicted func(key string)) *Store {
	return &Store{mem: newLRU[[]byte](budgetBytes), disk: disk, evicted: evicted}
}

// Get returns the value for a key. mem reports that the memory tier
// answered; a disk hit is promoted into memory. Callers must not
// mutate the returned bytes.
func (s *Store) Get(key string) (val []byte, mem, ok bool) {
	s.mu.Lock()
	val, mem = s.mem.get(key)
	s.mu.Unlock()
	if !mem {
		if val, ok = s.disk.Get(key); ok {
			s.putMem(key, val)
		}
	}
	return val, mem, mem || ok
}

// Put stores a value in both tiers and reports whether either holds it
// (false only when it is larger than the memory budget and no disk
// tier takes it). Callers must not mutate val after handing it over.
func (s *Store) Put(key string, val []byte) bool {
	inMem := s.putMem(key, val)
	onDisk := s.disk.Put(key, val)
	return inMem || onDisk
}

// putMem inserts into the memory tier and reports the evictions it
// caused once the lock is released.
func (s *Store) putMem(key string, val []byte) bool {
	s.mu.Lock()
	evicted, ok := s.mem.put(key, val, int64(len(val)))
	s.mu.Unlock()
	for _, ent := range evicted {
		s.evicted(ent.key)
	}
	return ok
}

// Len returns the number of values resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.ll.Len()
}

// Bytes returns the memory tier's resident byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.used
}

// Disk returns the disk tier; nil when the store is memory-only.
func (s *Store) Disk() *Disk { return s.disk }
