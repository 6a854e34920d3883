package sim

import (
	"context"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

func prefetchMachine(t *testing.T, mhz uint64, enabled bool) *RAMpage {
	t.Helper()
	r, err := NewRAMpage(RAMpageConfig{
		Params:       DefaultParams(mhz),
		SRAMBytes:    256<<10 + 8<<10,
		PageBytes:    1024,
		PrefetchNext: enabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// streamRefs is a sequential walk: the ideal prefetch customer.
func streamRefs(n int, base uint64) []mem.Ref {
	refs := make([]mem.Ref, 0, 2*n)
	for i := 0; i < n; i++ {
		refs = append(refs,
			mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)},
			mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i)*8)})
	}
	return refs
}

func TestPrefetchCoversSequentialFaults(t *testing.T) {
	run := func(enabled bool) *stats.Report {
		r := prefetchMachine(t, 4000, enabled)
		for _, ref := range streamRefs(20000, 0x1000000) {
			if _, err := exec1(r, ref); err != nil {
				t.Fatal(err)
			}
		}
		return r.Report()
	}
	off, on := run(false), run(true)
	if on.Prefetches == 0 {
		t.Fatal("prefetching enabled but nothing prefetched")
	}
	if on.PrefetchHits == 0 {
		t.Error("sequential stream produced no prefetch hits")
	}
	// Prefetch must convert most demand faults into hits: far fewer
	// synchronous faults.
	if on.PageFaults >= off.PageFaults/2 {
		t.Errorf("faults with prefetch = %d, without = %d; want < half", on.PageFaults, off.PageFaults)
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("prefetch (%d cycles) not faster than demand (%d) on a stream", on.Cycles, off.Cycles)
	}
}

func TestPrefetchStallChargesPartialWait(t *testing.T) {
	// Touching the prefetched page immediately after the fault must
	// wait for (part of) the in-flight transfer, not a full fault.
	r := prefetchMachine(t, 4000, true)
	if _, err := exec1(r, uref(1, mem.Load, 0x1000000)); err != nil { // fault + prefetch of next page
		t.Fatal(err)
	}
	before := r.Report().Cycles
	if _, err := exec1(r, uref(1, mem.Load, 0x1000000+1024)); err != nil { // prefetched page
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.PrefetchStalls != 1 {
		t.Errorf("PrefetchStalls = %d, want 1", rep.PrefetchStalls)
	}
	if rep.PageFaults != 1 {
		t.Errorf("PageFaults = %d, want 1 (the second access must not fault)", rep.PageFaults)
	}
	wait := rep.Cycles - before
	full := DefaultParams(4000).transferCycles(1024)
	if wait == 0 || wait > mem.Cycles(float64(full)*1.5) {
		t.Errorf("stall = %d cycles; want partial wait near the transfer time (%d)", wait, full)
	}
}

func TestPrefetchWastedCounted(t *testing.T) {
	// A strided walk that skips every other page wastes half the
	// prefetches; they must eventually be evicted and counted.
	r, err := NewRAMpage(RAMpageConfig{
		Params:       DefaultParams(1000),
		SRAMBytes:    64 << 10, // small: wasted pages get evicted fast
		PageBytes:    4096,
		PrefetchNext: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := exec1(r, uref(1, mem.Load, uint64(0x1000000+i*8192))); err != nil {
			t.Fatal(err)
		}
	}
	rep := r.Report()
	if rep.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if rep.PrefetchWasted == 0 {
		t.Error("page-skipping walk produced no wasted prefetches")
	}
	if rep.PrefetchHits != 0 {
		t.Errorf("PrefetchHits = %d on a walk that never touches prefetched pages", rep.PrefetchHits)
	}
}

func TestPrefetchWithSwitchOnMiss(t *testing.T) {
	// Prefetch and switch-on-miss must compose: the workload completes
	// and a demand hit on an in-flight prefetch blocks rather than
	// stalls.
	r, err := NewRAMpage(RAMpageConfig{
		Params:       DefaultParams(4000),
		SRAMBytes:    256<<10 + 8<<10,
		PageBytes:    1024,
		SwitchOnMiss: true,
		PrefetchNext: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	readers := []trace.Reader{
		trace.NewSliceReader(streamRefs(5000, 0x1000000)),
		trace.NewSliceReader(streamRefs(5000, 0x8000000)),
	}
	s, _ := NewScheduler(r, readers, SchedulerConfig{Quantum: 2000, InsertSwitchTrace: true})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 20000 {
		t.Errorf("BenchRefs = %d, want 20000", rep.BenchRefs)
	}
	if rep.Prefetches == 0 || rep.PrefetchHits == 0 {
		t.Errorf("prefetch inactive under CS: %d issued, %d hits", rep.Prefetches, rep.PrefetchHits)
	}
}

func TestPrefetchDeterministic(t *testing.T) {
	run := func() mem.Cycles {
		r := prefetchMachine(t, 2000, true)
		for _, ref := range streamRefs(5000, 0x1000000) {
			if _, err := exec1(r, ref); err != nil {
				t.Fatal(err)
			}
		}
		return r.Report().Cycles
	}
	if run() != run() {
		t.Error("prefetch runs not deterministic")
	}
}
