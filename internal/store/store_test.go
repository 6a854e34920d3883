package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rampage/internal/metrics"
)

// newCache is a memory-only store that counts evictions the way the
// result cache does.
func newCache(budget int64, stats *metrics.ServiceStats) *Store {
	return New(budget, nil, func(string) { stats.Add(metrics.SvcCacheEvict, 1) })
}

func TestCacheGetPut(t *testing.T) {
	c := newCache(0, nil) // unlimited
	if _, _, ok := c.Get("missing"); ok {
		t.Error("empty cache returned a value")
	}
	c.Put("a", []byte("doc-a"))
	if v, _, ok := c.Get("a"); !ok || string(v) != "doc-a" {
		t.Errorf("Get(a) = (%q, %v)", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 5 {
		t.Errorf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// Replacing a key updates accounting rather than double-counting.
	c.Put("a", []byte("doc-a-longer"))
	if c.Len() != 1 || c.Bytes() != 12 {
		t.Errorf("after replace: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	var stats metrics.ServiceStats
	c := newCache(30, &stats)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 at budget", c.Len())
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	c.Get("k0")
	c.Put("k3", make([]byte, 10))
	if _, _, ok := c.Get("k1"); ok {
		t.Error("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, _, ok := c.Get(k); !ok {
			t.Errorf("entry %s evicted out of order", k)
		}
	}
	if c.Bytes() != 30 {
		t.Errorf("bytes = %d, want 30", c.Bytes())
	}
	if stats.Get(metrics.SvcCacheEvict) != 1 {
		t.Errorf("evictions = %d, want 1", stats.Get(metrics.SvcCacheEvict))
	}
}

func TestCacheRejectsOverBudgetValue(t *testing.T) {
	c := newCache(10, nil)
	c.Put("small", make([]byte, 4))
	c.Put("huge", make([]byte, 64))
	if _, _, ok := c.Get("huge"); ok {
		t.Error("over-budget value was stored")
	}
	if _, _, ok := c.Get("small"); !ok {
		t.Error("over-budget Put evicted the resident entry")
	}
}

func TestCacheKeepsNewestWhenBudgetTight(t *testing.T) {
	c := newCache(10, nil)
	c.Put("a", make([]byte, 8))
	c.Put("b", make([]byte, 9))
	if _, _, ok := c.Get("a"); ok {
		t.Error("old entry survived a displacing insert")
	}
	if _, _, ok := c.Get("b"); !ok {
		t.Error("new entry displaced instead of old")
	}
}

// TestStoreConcurrentTiers runs Get and Put from many
// goroutines against a budget a few values wide, so nearly every Put
// evicts, with and without a disk tier (run it under -race). Every hit
// must return the key's own bytes, and once quiet the memory tier's
// accounting must match its entries and fit the budget.
func TestStoreConcurrentTiers(t *testing.T) {
	const budget = 300
	val := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 40+k%30) }
	for _, withDisk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%t", withDisk), func(t *testing.T) {
			var disk *Disk
			if withDisk {
				var err error
				if disk, err = OpenDisk(t.TempDir(), 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			var evictions atomic.Int64
			s := New(budget, disk, func(string) { evictions.Add(1) })
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < 400; i++ {
						k := r.Intn(24)
						key := fmt.Sprintf("k%02d", k)
						if r.Intn(2) == 0 {
							s.Put(key, val(k))
						} else if v, _, ok := s.Get(key); ok && !bytes.Equal(v, val(k)) {
							t.Errorf("Get(%s) returned another key's bytes", key)
						}
					}
				}(int64(g))
			}
			wg.Wait()

			var sum int64
			for key, el := range s.mem.items {
				ent := el.Value.(*lruEntry[[]byte])
				if ent.key != key || int64(len(ent.val)) != ent.size {
					t.Errorf("entry %s: key %s, size %d for %d bytes", key, ent.key, ent.size, len(ent.val))
				}
				sum += ent.size
			}
			if len(s.mem.items) != s.Len() || sum != s.Bytes() || s.Bytes() > budget {
				t.Errorf("memory tier: %d items, Len %d, %d bytes summed, Bytes %d, budget %d",
					len(s.mem.items), s.Len(), sum, s.Bytes(), budget)
			}
			if evictions.Load() == 0 {
				t.Error("no evictions: the budget did not bind")
			}
			for _, key := range disk.Keys() {
				var k int
				fmt.Sscanf(key, "k%02d", &k)
				if v, ok := disk.Get(key); !ok || !bytes.Equal(v, val(k)) {
					t.Errorf("disk tier: %s indexed but not served intact", key)
				}
			}
		})
	}
}
