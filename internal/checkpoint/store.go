package checkpoint

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"rampage/internal/metrics"
	"rampage/internal/store"
)

// Store is a content-addressed checkpoint store: a metadata index over
// a store.Store that holds the encoded checkpoints in a byte-budget
// memory tier, written through to an optional disk tier. Entries are
// addressed by (warm-up prefix hash, reference count, finality);
// lookups ask for the newest checkpoint dominating a target reference
// budget and never touch the bytes of any other entry. It is safe for
// concurrent use — sweep cells share one store.
type Store struct {
	blobs *store.Store
	svc   *metrics.ServiceStats

	mu    sync.Mutex
	index map[string][]Meta // by prefix
}

// NewStore returns a store with the given resident-byte budget
// (<= 0 = unlimited) over disk (nil = memory only). Without a disk
// tier a checkpoint evicted from memory is dropped; with one it stays
// servable from disk, and the index is rebuilt from the disk tier's
// keys so a restarted process warms from the checkpoints its
// predecessor wrote. svc may be nil; when set, the store counts hits,
// misses and evictions on it.
func NewStore(budgetBytes int64, disk *store.Disk, svc *metrics.ServiceStats) *Store {
	s := &Store{svc: svc, index: make(map[string][]Meta)}
	s.blobs = store.New(budgetBytes, disk, s.evicted)
	for _, key := range disk.Keys() {
		if m, ok := parseEntryKey(key); ok {
			s.add(m)
		}
	}
	return s
}

// entryKey addresses one checkpoint within the store.
func entryKey(m Meta) string {
	return fmt.Sprintf("%s@%d/%t", m.Prefix, m.Refs, m.Final)
}

// parseEntryKey inverts entryKey, accepting only its canonical form.
func parseEntryKey(key string) (Meta, bool) {
	at := strings.LastIndexByte(key, '@')
	if at < 0 {
		return Meta{}, false
	}
	m := Meta{Prefix: key[:at]}
	_, err := fmt.Sscanf(key[at+1:], "%d/%t", &m.Refs, &m.Final)
	return m, err == nil && entryKey(m) == key
}

// evicted is the memory tier's eviction report. A checkpoint with no
// disk copy is gone, so it leaves the index too.
func (s *Store) evicted(key string) {
	s.svc.Add(metrics.SvcCkptEvict, 1)
	if s.blobs.Disk() == nil {
		if m, ok := parseEntryKey(key); ok {
			s.remove(m)
		}
	}
}

// add indexes a checkpoint, reporting whether it was new.
func (s *Store) add(m Meta) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Contains(s.index[m.Prefix], m) {
		return false
	}
	s.index[m.Prefix] = append(s.index[m.Prefix], m)
	return true
}

// remove unindexes one checkpoint.
func (s *Store) remove(m Meta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	metas := slices.DeleteFunc(s.index[m.Prefix], func(have Meta) bool { return have == m })
	if len(metas) == 0 {
		delete(s.index, m.Prefix)
	} else {
		s.index[m.Prefix] = metas
	}
}

// Put stores a checkpoint. Re-putting an existing (prefix, refs,
// final) address refreshes its recency — checkpoints are
// deterministic, so the payloads are identical. A checkpoint neither
// tier takes (larger than the memory budget, no disk tier) is not
// indexed.
func (s *Store) Put(c *Checkpoint) {
	// Index first: an eviction reported between the blob write and a
	// later index insert would leave an entry indexed with no bytes.
	added := s.add(c.Meta)
	if !s.blobs.Put(entryKey(c.Meta), c.Encode()) && added {
		s.remove(c.Meta)
	}
}

// usable classifies a stored checkpoint against a target reference
// budget (0 = run to end of workload):
//
//   - complete: restoring it IS the finished run. A final checkpoint
//     strictly below the budget qualifies (the from-scratch run would
//     have drained the workload, end-of-stream switch traces and all,
//     before reaching the budget); so does a non-final checkpoint at
//     exactly the budget (both stop at the budget check before any
//     end-of-stream handling). A final checkpoint at exactly the
//     budget does NOT qualify: the budgeted run stops before executing
//     the end-of-stream context switches the final state contains.
//   - resume: restoring it and running on reaches the target.
func usable(m Meta, maxRefs uint64) (complete, resume bool) {
	if maxRefs == 0 {
		if m.Final {
			return true, false
		}
		return false, true
	}
	if m.Final {
		return m.Refs < maxRefs, false
	}
	if m.Refs == maxRefs {
		return true, false
	}
	return false, m.Refs < maxRefs
}

// best picks the prefix's checkpoint for reaching maxRefs: a complete
// answer when one exists, otherwise the resumable checkpoint with the
// most references already executed.
func (s *Store) best(prefix string, maxRefs uint64) (best Meta, complete, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.index[prefix] {
		comp, res := usable(m, maxRefs)
		if !comp && !res {
			continue
		}
		if !ok || (comp && !complete) || (comp == complete && m.Refs > best.Refs) {
			best, complete, ok = m, comp, true
		}
	}
	return best, complete, ok
}

// Nearest returns the best stored checkpoint for reaching maxRefs
// references under the given warm-up prefix: a complete answer when
// one exists, otherwise the resumable checkpoint with the most
// references already executed. ok is false when nothing helps (a cold
// run is required). A chosen checkpoint whose bytes are gone or do not
// decode is unindexed and the lookup misses.
func (s *Store) Nearest(prefix string, maxRefs uint64) (c *Checkpoint, complete bool, ok bool) {
	m, complete, ok := s.best(prefix, maxRefs)
	if ok {
		if enc, _, hit := s.blobs.Get(entryKey(m)); hit {
			if ck, err := Decode(enc); err == nil {
				s.svc.Add(metrics.SvcCkptHit, 1)
				return ck, complete, true
			}
		}
		s.remove(m)
	}
	s.svc.Add(metrics.SvcCkptMiss, 1)
	return nil, false, false
}

// Peek reports whether a checkpoint usable for reaching maxRefs exists
// under the prefix, and how warm it is, without loading bytes, touching
// recency or counting a hit or miss. Sweep planners use it to order
// cells; the answer is advisory — a concurrent eviction can invalidate
// it before Nearest runs.
func (s *Store) Peek(prefix string, maxRefs uint64) (refs uint64, complete, ok bool) {
	m, complete, ok := s.best(prefix, maxRefs)
	return m.Refs, complete, ok
}

// Len returns the number of indexed checkpoints, resident in memory or
// held only by the disk tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, metas := range s.index {
		n += len(metas)
	}
	return n
}

// Bytes returns the resident (in-memory) byte total.
func (s *Store) Bytes() int64 { return s.blobs.Bytes() }
