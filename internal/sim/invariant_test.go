package sim

import (
	"strings"
	"testing"

	"rampage/internal/cache"
	"rampage/internal/core"
	"rampage/internal/mem"
)

// White-box tests for the CheckInvariants methods: corrupt one piece of
// machine state at a time and verify the matching check fires. The
// positive paths (clean runs stay violation-free) are covered
// end-to-end in internal/oracle.

func invariantBaseline(t *testing.T) *Baseline {
	t.Helper()
	b, err := NewBaseline(BaselineConfig{
		Params:    DefaultParams(1000),
		L2Bytes:   128 << 10,
		L2Block:   512,
		L2Assoc:   1,
		L2Policy:  cache.LRU,
		DRAMBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Touch enough state that the structures are non-trivially populated.
	for i := 0; i < 2_000; i++ {
		ref := mem.Ref{PID: 1, Kind: mem.Store, Addr: mem.VAddr(0x1000_0000 + i*96)}
		if _, err := exec1(b, ref); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func invariantRAMpage(t *testing.T) *RAMpage {
	t.Helper()
	r, err := NewRAMpage(RAMpageConfig{
		Params:    DefaultParams(1000),
		SRAMBytes: 160 << 10,
		PageBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2_000; i++ {
		ref := mem.Ref{PID: 1, Kind: mem.Store, Addr: mem.VAddr(0x1000_0000 + i*96)}
		if _, err := exec1(r, ref); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func wantViolation(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected (want error mentioning %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("violation message %q does not mention %q", err, fragment)
	}
}

func TestBaselineInvariantsDetectCorruption(t *testing.T) {
	t.Run("time-attribution", func(t *testing.T) {
		b := invariantBaseline(t)
		b.rep.Cycles++
		wantViolation(t, b.CheckInvariants(), "attributed")
	})
	t.Run("dram-accounting", func(t *testing.T) {
		b := invariantBaseline(t)
		b.rep.DRAMBytes += 7
		wantViolation(t, b.CheckInvariants(), "DRAM")
	})
	t.Run("inclusion", func(t *testing.T) {
		b := invariantBaseline(t)
		// Evict an L2 block behind the machine's back: any L1-resident
		// child of that block now violates inclusion.
		var victim mem.PAddr
		found := false
		b.l1.data.ForEachValid(func(addr mem.PAddr, dirty bool) {
			if !found {
				victim, found = addr, true
			}
		})
		if !found {
			t.Fatal("no valid L1 data block to orphan")
		}
		b.l2.Invalidate(victim)
		wantViolation(t, b.CheckInvariants(), "inclusion")
	})
	t.Run("tlb-coherence", func(t *testing.T) {
		b := invariantBaseline(t)
		// Unmap a frame the TLB still caches.
		var frame uint64
		found := false
		b.tlb.ForEachValid(func(pid mem.PID, vpn, f uint64) {
			if !found {
				frame, found = f, true
			}
		})
		if !found {
			t.Fatal("no valid TLB entry to orphan")
		}
		if _, _, _, err := b.pt.Unmap(frame); err != nil {
			t.Fatal(err)
		}
		wantViolation(t, b.CheckInvariants(), "TLB")
	})
	t.Run("kernel-pin", func(t *testing.T) {
		b := invariantBaseline(t)
		b.pt.Unpin(0)
		wantViolation(t, b.CheckInvariants(), "pinned")
	})
}

func TestRAMpageInvariantsDetectCorruption(t *testing.T) {
	t.Run("time-attribution", func(t *testing.T) {
		r := invariantRAMpage(t)
		r.rep.Cycles++
		wantViolation(t, r.CheckInvariants(), "attributed")
	})
	t.Run("dram-accounting", func(t *testing.T) {
		r := invariantRAMpage(t)
		r.rep.DRAMTransfers++
		wantViolation(t, r.CheckInvariants(), "DRAM")
	})
	t.Run("residency", func(t *testing.T) {
		r := invariantRAMpage(t)
		// Swap in a fresh, empty SRAM memory behind the machine's back:
		// every user-frame block still resident in L1 now points at an
		// unmapped page.
		mm, err := core.New(core.Config{
			TotalBytes: r.cfg.SRAMBytes,
			PageBytes:  r.cfg.PageBytes,
			TLBEntries: r.cfg.TLBEntries,
			TLBAssoc:   r.cfg.TLBAssoc,
			Seed:       r.cfg.Seed + 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.mm = mm
		wantViolation(t, r.CheckInvariants(), "unmapped")
	})
}
