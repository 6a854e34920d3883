package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rampage/internal/metrics"
	"rampage/internal/store"
)

func mkCkpt(prefix string, refs uint64, final bool, payload []byte) *Checkpoint {
	return &Checkpoint{
		Meta:    Meta{Prefix: prefix, Refs: refs, Final: final},
		System:  "test-machine",
		Payload: payload,
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	for _, c := range []*Checkpoint{
		mkCkpt("abc123", 500_000, false, []byte{1, 2, 3, 0xFF}),
		mkCkpt("", 0, true, nil),
		mkCkpt("deadbeef", 1<<40, true, bytes.Repeat([]byte{0xAB}, 4096)),
	} {
		enc := c.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Meta != c.Meta || got.System != c.System || !bytes.Equal(got.Payload, c.Payload) {
			t.Errorf("round trip changed the checkpoint: got %+v want %+v", got, c)
		}
		if re := got.Encode(); !bytes.Equal(re, enc) {
			t.Error("re-encode is not byte-identical")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := mkCkpt("abc", 42, false, []byte{9, 9, 9}).Encode()

	// Every strict prefix must fail cleanly (truncation at any point).
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is refused.
	if _, err := Decode(append(append([]byte{}, valid...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Bad magic and unknown format version are refused.
	bad := append([]byte{}, valid...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, valid...)
	bad[4] ^= 0xFF // format version field
	if _, err := Decode(bad); err == nil {
		t.Error("unknown format version accepted")
	}
}

func TestUsableDominance(t *testing.T) {
	for _, tc := range []struct {
		name             string
		meta             Meta
		maxRefs          uint64
		complete, resume bool
	}{
		{"uncapped wants final", Meta{Refs: 100, Final: true}, 0, true, false},
		{"uncapped resumes non-final", Meta{Refs: 100, Final: false}, 0, false, true},
		{"final below budget is complete", Meta{Refs: 100, Final: true}, 200, true, false},
		{"final at budget unusable", Meta{Refs: 200, Final: true}, 200, false, false},
		{"final beyond budget unusable", Meta{Refs: 300, Final: true}, 200, false, false},
		{"non-final at budget is complete", Meta{Refs: 200, Final: false}, 200, true, false},
		{"non-final below budget resumes", Meta{Refs: 100, Final: false}, 200, false, true},
		{"non-final beyond budget unusable", Meta{Refs: 300, Final: false}, 200, false, false},
	} {
		comp, res := usable(tc.meta, tc.maxRefs)
		if comp != tc.complete || res != tc.resume {
			t.Errorf("%s: usable(%+v, %d) = (%t, %t), want (%t, %t)",
				tc.name, tc.meta, tc.maxRefs, comp, res, tc.complete, tc.resume)
		}
	}
}

func TestStoreNearestPicksWarmest(t *testing.T) {
	svc := &metrics.ServiceStats{}
	s := NewStore(0, nil, svc)
	s.Put(mkCkpt("p", 100, false, []byte{1}))
	s.Put(mkCkpt("p", 300, false, []byte{3}))
	s.Put(mkCkpt("p", 200, false, []byte{2}))
	s.Put(mkCkpt("other", 400, false, []byte{4}))

	c, complete, ok := s.Nearest("p", 500)
	if !ok || complete || c.Meta.Refs != 300 {
		t.Fatalf("Nearest(p, 500) = (%+v, %t, %t), want the 300-ref resume", c, complete, ok)
	}
	// A final checkpoint below the budget beats any resume.
	s.Put(mkCkpt("p", 250, true, []byte{5}))
	if c, complete, ok = s.Nearest("p", 500); !ok || !complete || c.Meta.Refs != 250 {
		t.Fatalf("Nearest with a final answer = (%+v, %t, %t), want the complete 250", c, complete, ok)
	}
	// Unknown prefix misses.
	if _, _, ok = s.Nearest("nope", 500); ok {
		t.Error("unknown prefix produced a checkpoint")
	}
	if svc.Get(metrics.SvcCkptHit) != 2 || svc.Get(metrics.SvcCkptMiss) != 1 {
		t.Errorf("hit/miss = %d/%d, want 2/1",
			svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss))
	}
}

// openDisk opens a checkpoint disk tier the way the server does:
// unbudgeted and uncounted.
func openDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStoreLRUEvictsToDisk(t *testing.T) {
	svc := &metrics.ServiceStats{}
	payload := bytes.Repeat([]byte{7}, 256)
	one := mkCkpt("a", 1, false, payload)
	budget := int64(len(one.Encode())*2 + 1) // room for two residents

	s := NewStore(budget, openDisk(t, t.TempDir()), svc)
	s.Put(one)
	s.Put(mkCkpt("b", 1, false, payload))
	s.Put(mkCkpt("c", 1, false, payload)) // evicts "a" (LRU) from memory; its disk copy stays
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (disk-only entries still count)", s.Len())
	}
	if s.Bytes() > budget {
		t.Errorf("resident bytes %d exceed budget %d", s.Bytes(), budget)
	}
	if svc.Get(metrics.SvcCkptEvict) != 1 {
		t.Errorf("evictions = %d, want 1", svc.Get(metrics.SvcCkptEvict))
	}
	// The evicted checkpoint is still served, byte-identical.
	c, _, ok := s.Nearest("a", 0)
	if !ok || !bytes.Equal(c.Payload, payload) {
		t.Fatalf("evicted checkpoint not restored: ok=%t", ok)
	}
	// A corrupt disk record is dropped on load, not served or kept.
	dir := t.TempDir()
	s2 := NewStore(budget, openDisk(t, dir), nil)
	s2.Put(mkCkpt("x", 1, false, payload))
	s2.Put(mkCkpt("y", 1, false, payload))
	s2.Put(mkCkpt("z", 1, false, payload))
	files, _ := filepath.Glob(filepath.Join(dir, "*.res"))
	for _, f := range files {
		os.WriteFile(f, []byte("garbage"), 0o644)
	}
	if _, _, ok := s2.Nearest("x", 0); ok {
		t.Error("corrupt disk record served")
	}
	if s2.Len() != 2 {
		t.Errorf("corrupt entry not dropped: Len = %d, want 2", s2.Len())
	}
}

func TestStoreDropInsteadOfSpill(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 256)
	one := mkCkpt("a", 1, false, payload)
	budget := int64(len(one.Encode()) + 1) // room for one resident
	s := NewStore(budget, nil, nil)        // no disk tier
	s.Put(one)
	s.Put(mkCkpt("b", 1, false, payload)) // evicts and drops "a"
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (no disk tier: eviction drops)", s.Len())
	}
	if _, _, ok := s.Nearest("a", 0); ok {
		t.Error("dropped checkpoint still served")
	}
	// Larger than the whole budget with no disk tier: neither stored
	// nor indexed.
	s.Put(mkCkpt("huge", 1, false, bytes.Repeat([]byte{9}, 4096)))
	if _, _, ok := s.Peek("huge", 0); ok || s.Len() != 1 {
		t.Errorf("over-budget checkpoint indexed: Len = %d", s.Len())
	}
}

// TestStoreMissingDirCreated pins the disk tier's directory handling:
// a -checkpoint-dir that does not exist yet is created at open, so an
// evicted checkpoint is still served instead of silently dropped.
func TestStoreMissingDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	payload := bytes.Repeat([]byte{7}, 256)
	one := mkCkpt("a", 1, false, payload)
	s := NewStore(int64(len(one.Encode())+1), openDisk(t, dir), nil)
	s.Put(one)
	s.Put(mkCkpt("b", 1, false, payload)) // evicts "a" from memory
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if c, _, ok := s.Nearest("a", 0); !ok || !bytes.Equal(c.Payload, payload) {
		t.Errorf("evicted checkpoint not served from the created directory: ok=%t", ok)
	}
}

// TestStoreReopenServesAcrossRestart pins restart recovery: a new
// store over the same disk directory rebuilds its index from the
// records' keys and serves byte-identical checkpoints, dominance
// included, without any of them having been put in this process.
func TestStoreReopenServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(0, openDisk(t, dir), nil)
	want := map[Meta][]byte{}
	for _, c := range []*Checkpoint{
		mkCkpt("p", 100, false, []byte{1, 2, 3}),
		mkCkpt("p", 300, false, []byte{4, 5}),
		mkCkpt("p", 250, true, bytes.Repeat([]byte{6}, 99)),
		mkCkpt("q@odd/prefix", 7, true, []byte{8}),
	} {
		s.Put(c)
		want[c.Meta] = c.Encode()
	}

	svc := &metrics.ServiceStats{}
	s2 := NewStore(0, openDisk(t, dir), svc)
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	if refs, complete, ok := s2.Peek("p", 500); !ok || !complete || refs != 250 {
		t.Errorf("reopened Peek = (%d, %t, %t), want the complete 250", refs, complete, ok)
	}
	for _, probe := range []struct {
		prefix  string
		maxRefs uint64
		want    Meta
	}{
		{"p", 500, Meta{Prefix: "p", Refs: 250, Final: true}},
		{"p", 200, Meta{Prefix: "p", Refs: 100}},
		{"p", 300, Meta{Prefix: "p", Refs: 300}},
		{"q@odd/prefix", 0, Meta{Prefix: "q@odd/prefix", Refs: 7, Final: true}},
	} {
		c, _, ok := s2.Nearest(probe.prefix, probe.maxRefs)
		if !ok || c.Meta != probe.want {
			t.Fatalf("reopened Nearest(%s, %d) = %+v, %t; want %+v", probe.prefix, probe.maxRefs, c, ok, probe.want)
		}
		if got := c.Encode(); !bytes.Equal(got, want[probe.want]) {
			t.Errorf("reopened %+v differs from the stored bytes", probe.want)
		}
	}
	if h := svc.Get(metrics.SvcCkptHit); h != 4 {
		t.Errorf("checkpoint hits = %d, want 4", h)
	}
}

// TestStoreConcurrentIndex runs Put, Nearest and Peek from many
// goroutines against a memory budget a few checkpoints wide, with and
// without a disk tier (run it under -race). Every restored checkpoint
// must be the one its metadata names, and once quiet the index must
// hold no checkpoint that is absent from both tiers.
func TestStoreConcurrentIndex(t *testing.T) {
	payloadOf := func(m Meta) []byte {
		return bytes.Repeat([]byte(entryKey(m)), 8+int(m.Refs))
	}
	budget := int64(3 * len(mkCkpt("p0", 5, true, payloadOf(Meta{Prefix: "p0", Refs: 5, Final: true})).Encode()))
	for _, withDisk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%t", withDisk), func(t *testing.T) {
			var disk *store.Disk
			if withDisk {
				disk = openDisk(t, t.TempDir())
			}
			svc := &metrics.ServiceStats{}
			s := NewStore(budget, disk, svc)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < 300; i++ {
						m := Meta{Prefix: fmt.Sprintf("p%d", r.Intn(4)), Refs: uint64(1 + r.Intn(5)), Final: r.Intn(2) == 0}
						switch r.Intn(3) {
						case 0:
							s.Put(mkCkpt(m.Prefix, m.Refs, m.Final, payloadOf(m)))
						case 1:
							if c, _, ok := s.Nearest(m.Prefix, m.Refs); ok && (c.Meta.Prefix != m.Prefix || !bytes.Equal(c.Payload, payloadOf(c.Meta))) {
								t.Errorf("Nearest(%s) restored %+v with foreign bytes", m.Prefix, c.Meta)
							}
						default:
							s.Peek(m.Prefix, m.Refs)
						}
					}
				}(int64(g))
			}
			wg.Wait()

			s.mu.Lock()
			var metas []Meta
			for _, ms := range s.index {
				metas = append(metas, ms...)
			}
			s.mu.Unlock()
			if s.Len() != len(metas) {
				t.Errorf("Len %d, %d indexed", s.Len(), len(metas))
			}
			for _, m := range metas {
				if _, _, ok := s.blobs.Get(entryKey(m)); !ok {
					t.Errorf("index holds %+v, absent from both tiers", m)
				}
			}
			if s.Bytes() > budget {
				t.Errorf("resident bytes %d exceed budget %d", s.Bytes(), budget)
			}
			if svc.Get(metrics.SvcCkptEvict) == 0 {
				t.Error("no evictions: the budget did not bind")
			}
		})
	}
}

func TestParseEntryKeyRoundTrip(t *testing.T) {
	for _, m := range []Meta{
		{Prefix: "abc", Refs: 0, Final: false},
		{Prefix: "", Refs: 1 << 63, Final: true},
		{Prefix: "a@b/c@1/true", Refs: 42, Final: true},
	} {
		if got, ok := parseEntryKey(entryKey(m)); !ok || got != m {
			t.Errorf("parseEntryKey(entryKey(%+v)) = %+v, %t", m, got, ok)
		}
	}
	for _, key := range []string{"", "abc", "abc@", "abc@12", "abc@x/true", "abc@12/yes", "abc@012/true", "abc@12/TRUE", "abc@+1/true"} {
		if m, ok := parseEntryKey(key); ok {
			t.Errorf("parseEntryKey(%q) accepted %+v", key, m)
		}
	}
}

func TestStorePeekIsAdvisoryOnly(t *testing.T) {
	svc := &metrics.ServiceStats{}
	s := NewStore(0, nil, svc)
	s.Put(mkCkpt("p", 100, false, []byte{1}))
	s.Put(mkCkpt("p", 50, true, []byte{2}))

	refs, complete, ok := s.Peek("p", 500)
	if !ok || !complete || refs != 50 {
		t.Errorf("Peek = (%d, %t, %t), want the complete 50", refs, complete, ok)
	}
	if refs, complete, ok = s.Peek("p", 100); !ok || !complete || refs != 100 {
		t.Errorf("Peek at-budget = (%d, %t, %t), want the complete 100", refs, complete, ok)
	}
	if _, _, ok = s.Peek("nope", 0); ok {
		t.Error("Peek found an unknown prefix")
	}
	if h, m := svc.Get(metrics.SvcCkptHit), svc.Get(metrics.SvcCkptMiss); h != 0 || m != 0 {
		t.Errorf("Peek counted hits/misses: %d/%d", h, m)
	}
}

// FuzzCheckpointRoundTrip drives Decode with arbitrary bytes: it must
// never panic, and any input it accepts must re-encode byte-identically
// (the codec has exactly one encoding per checkpoint).
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(mkCkpt("abc123", 500_000, false, []byte{1, 2, 3}).Encode())
	f.Add(mkCkpt("", 0, true, nil).Encode())
	f.Add(mkCkpt("ff00", 1<<40, true, bytes.Repeat([]byte{0xAB}, 64)).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x4B, 0x50, 0x52})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		re := c.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input re-encodes differently:\n in: %x\nout: %x", data, re)
		}
		c2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if c2.Meta != c.Meta || c2.System != c.System || !bytes.Equal(c2.Payload, c.Payload) {
			t.Fatal("second decode disagrees with the first")
		}
	})
}
