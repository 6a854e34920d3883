package sim

import (
	"context"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// --- Victim cache on the baseline (ablation X3) ---

func TestBaselineVictimCacheReducesDRAMTraffic(t *testing.T) {
	mk := func(victim int) *Baseline {
		b, err := NewBaseline(BaselineConfig{
			Params:        DefaultParams(1000),
			L2Bytes:       64 << 10, // small L2: conflicts matter
			L2Block:       128,
			L2Assoc:       1,
			DRAMBytes:     16 << 20,
			VictimEntries: victim,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A ping-pong conflict pattern in L2: two kernel blocks 64KB apart.
	refs := make([]mem.Ref, 0, 4000)
	for i := 0; i < 1000; i++ {
		refs = append(refs, kref(mem.Load, 0), kref(mem.Load, 64<<10))
	}
	plain, vc := mk(0), mk(8)
	if err := plain.ExecTrace(refs, ClassSwitch); err != nil {
		t.Fatal(err)
	}
	if err := vc.ExecTrace(refs, ClassSwitch); err != nil {
		t.Fatal(err)
	}
	if vc.Report().L2Misses >= plain.Report().L2Misses {
		t.Errorf("victim cache did not cut conflict misses: %d vs %d",
			vc.Report().L2Misses, plain.Report().L2Misses)
	}
	if vc.Report().Cycles >= plain.Report().Cycles {
		t.Errorf("victim cache did not cut time: %d vs %d cycles",
			vc.Report().Cycles, plain.Report().Cycles)
	}
}

// --- Pipelined Direct Rambus (ablation X2) ---

func TestRAMpagePipelinedBackToBackFaultCheaper(t *testing.T) {
	// A fault with a dirty victim does a write-back then a fetch; on a
	// pipelined channel the fetch's 50ns startup overlaps the
	// write-back's data phase.
	run := func(pipelined bool) mem.Cycles {
		p := DefaultParams(4000)
		p.PipelinedDRAM = pipelined
		r, err := NewRAMpage(RAMpageConfig{
			Params:    p,
			SRAMBytes: 64 << 10,
			PageBytes: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Dirty every page, then thrash so every fault writes back.
		for lap := 0; lap < 3; lap++ {
			for i := 0; i < 40; i++ {
				if _, err := exec1(r, uref(1, mem.Store, uint64(0x100000+i*4096))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r.Report().LevelTime[stats.DRAM]
	}
	plain, pipe := run(false), run(true)
	if pipe >= plain {
		t.Errorf("pipelined DRAM time %d >= unpipelined %d", pipe, plain)
	}
}

// --- Aggressive L1 (§6.3) ---

func TestAggressiveL1ReducesL1Misses(t *testing.T) {
	run := func(l1Bytes uint64, assoc int) uint64 {
		p := DefaultParams(1000)
		p.L1Bytes = l1Bytes
		p.L1Assoc = assoc
		r, err := NewRAMpage(RAMpageConfig{Params: p, SRAMBytes: 264 << 10, PageBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		// A data working set beyond 16KB but within 64KB.
		for lap := 0; lap < 8; lap++ {
			for i := 0; i < 1500; i++ {
				if _, err := exec1(r, uref(1, mem.Load, uint64(0x100000+i*32))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r.Report().L1DMisses
	}
	small, big := run(16<<10, 1), run(64<<10, 8)
	if big >= small {
		t.Errorf("64KB 8-way L1 misses (%d) >= 16KB DM (%d)", big, small)
	}
}

// --- Large TLB (ablation X1) ---

func TestBigTLBReducesHandlerOverhead(t *testing.T) {
	run := func(entries, assoc int) float64 {
		p := DefaultParams(1000)
		p.TLBEntries = entries
		p.TLBAssoc = assoc
		r, err := NewRAMpage(RAMpageConfig{Params: p, SRAMBytes: 1 << 20, PageBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		// Touch 512KB repeatedly: 512 pages vs 64- or 1024-entry TLB.
		for lap := 0; lap < 4; lap++ {
			for i := 0; i < 4000; i++ {
				if _, err := exec1(r, uref(1, mem.Load, uint64(0x100000+i*128))); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r.Report().OverheadRatio()
	}
	small, big := run(64, 0), run(1024, 2)
	if big >= small {
		t.Errorf("1K-entry TLB overhead (%.3f) >= 64-entry (%.3f)", big, small)
	}
}

// --- Scheduler preemption semantics ---

func TestSchedulerResumeOnArrival(t *testing.T) {
	// With switch-on-miss, the faulting process must resume promptly
	// after its page arrives rather than waiting for a full rotation:
	// faults must NOT be amplified relative to the stalling run.
	mkReaders := func() []trace.Reader {
		var rs []trace.Reader
		for p := 0; p < 6; p++ {
			var refs []mem.Ref
			base := uint64(0x1000000 * (p + 1))
			for i := 0; i < 8000; i++ {
				refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)})
				refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i)*8)})
			}
			rs = append(rs, trace.NewSliceReader(refs))
		}
		return rs
	}
	run := func(switchOnMiss bool) *stats.Report {
		r := testRAMpage(t, 4000, 1024, switchOnMiss)
		s, _ := NewScheduler(r, mkReaders(), SchedulerConfig{Quantum: 4000, InsertSwitchTrace: true})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	stall, cs := run(false), run(true)
	if cs.PageFaults > stall.PageFaults*11/10 {
		t.Errorf("switch-on-miss amplified faults: %d vs %d", cs.PageFaults, stall.PageFaults)
	}
	if cs.Cycles >= stall.Cycles {
		t.Errorf("switch-on-miss (%d cycles) not faster than stalling (%d) on a streaming workload",
			cs.Cycles, stall.Cycles)
	}
}

func TestSchedulerQuantumRoundRobin(t *testing.T) {
	// Without faults the FIFO queue degenerates to round-robin: with
	// two processes and quantum Q, switches happen every Q refs.
	b := testBaseline(t, 200, 128)
	s, _ := NewScheduler(b, []trace.Reader{seqReader(1000, 0x400000), seqReader(1000, 0x400000)},
		SchedulerConfig{Quantum: 250})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2000 refs at quantum 250: 8 slices, 7 boundary switches (the
	// final EOF transitions are not quantum switches).
	if rep.Switches < 6 || rep.Switches > 8 {
		t.Errorf("Switches = %d, want ~7", rep.Switches)
	}
}

func TestSchedulerSliceStatePreservedAcrossFaults(t *testing.T) {
	// A fault mid-slice must not reset the faulter's remaining slice:
	// total quantum switches should match the no-fault arithmetic.
	r := testRAMpage(t, 4000, 4096, true)
	var refsA, refsB []mem.Ref
	for i := 0; i < 3000; i++ {
		refsA = append(refsA, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(0x1000000 + uint64(i)*16)})
		refsB = append(refsB, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%256)})
	}
	s, _ := NewScheduler(r, []trace.Reader{
		trace.NewSliceReader(refsA), trace.NewSliceReader(refsB),
	}, SchedulerConfig{Quantum: 1000})
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BenchRefs != 6000 {
		t.Errorf("BenchRefs = %d, want 6000", rep.BenchRefs)
	}
}

func TestKernelTracesThroughBothMachines(t *testing.T) {
	// Every kind of OS trace must execute cleanly on both machines.
	k := synth.NewKernel(1)
	var buf []mem.Ref
	buf = k.AppendTLBMiss(buf, []uint64{synth.KernelBase + 0x6000})
	buf = k.AppendPageFault(buf, []uint64{synth.KernelBase + 0x6100}, []uint64{synth.KernelBase + 0x6200})
	buf = k.AppendContextSwitch(buf, 1, 2)

	b := testBaseline(t, 1000, 256)
	if err := b.ExecTrace(buf, ClassSwitch); err != nil {
		t.Errorf("baseline rejected OS trace: %v", err)
	}
	r := testRAMpage(t, 1000, 1024, false)
	if err := r.ExecTrace(buf, ClassSwitch); err != nil {
		t.Errorf("rampage rejected OS trace: %v", err)
	}
}
