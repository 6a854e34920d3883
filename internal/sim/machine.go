package sim

import (
	"rampage/internal/cache"
	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
)

// Machine is a simulated system: it executes references, keeps the
// simulated clock, and accumulates a stats.Report. The scheduler
// drives a Machine with application references and operating-system
// traces.
type Machine interface {
	// ColumnarMachine is the one fused execution path; the scheduler
	// feeds it every columnar stream.
	ColumnarMachine
	// ExecBatch is ExecBatchColumnar over rows, with the same
	// consumed/block/error contract: the machines split refs into
	// same-PID runs and execute each through their own
	// ExecBatchColumnar. The scheduler feeds it every row stream.
	ExecBatch(refs []mem.Ref) (consumed int, blockUntil mem.Cycles, err error)
	// ExecTrace runs an operating-system reference sequence (handler
	// or context-switch code), accounting it under the given class.
	ExecTrace(refs []mem.Ref, class RefClass) error
	// Now returns the machine's absolute simulated time.
	Now() mem.Cycles
	// AdvanceTo idles the machine to absolute time t (waiting for an
	// in-flight DRAM page with no runnable process); the idle time is
	// attributed to the DRAM level.
	AdvanceTo(t mem.Cycles)
	// Report returns the machine's measurement record. It remains
	// owned by the machine; read it after the run completes.
	Report() *stats.Report
	// SetObserver attaches a metrics observer to the machine and its
	// components (nil detaches). Observation is read-only: the Report
	// is bit-identical with or without an observer attached.
	SetObserver(obs metrics.Observer)
}

// ColumnarMachine executes application references from a columnar
// window: one PID for the whole window plus parallel kind and address
// columns. It runs them in order, stopping at the first that blocks or
// errors; consumed is the number that completed. When consumed <
// len(kinds) with a nil error and a non-zero blockUntil, reference
// consumed faulted with its page arriving at blockUntil (only a
// RAMpage machine in switch-on-miss mode blocks): it did NOT execute
// and must be retried after that time. When consumed < len(kinds) with
// a nil error and a zero blockUntil, the machine stopped because a page
// transfer in flight completes before reference consumed would start
// (RAMpage stops before the first reference that would start at or
// after the earliest arrival); the caller offers the rest again after
// its own arrival checks. A window of one reference is exactly the
// paper's reference-at-a-time model; wider windows give bit-identical
// reports.
type ColumnarMachine interface {
	ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (consumed int, blockUntil mem.Cycles, err error)
}

// rowWindow is the widest row window: the scheduler's per-process
// read-ahead and the row ExecBatch adapter's column scratch.
const rowWindow = 512

// rowScratch is the machine-owned column scratch of the row ExecBatch
// adapter.
type rowScratch struct {
	kinds [rowWindow]mem.RefKind
	addrs [rowWindow]mem.VAddr
}

// execRows is the row ExecBatch adapter every machine shares: it copies
// each same-PID run of refs, at most rowWindow references at a time,
// into sc and executes it with m's ExecBatchColumnar. A run that stops
// short ends the batch there, blocked or not.
func execRows(m ColumnarMachine, sc *rowScratch, refs []mem.Ref) (int, mem.Cycles, error) {
	done := 0
	for done < len(refs) {
		pid := refs[done].PID
		n := 0
		for end := min(len(refs), done+rowWindow); done+n < end && refs[done+n].PID == pid; n++ {
			sc.kinds[n], sc.addrs[n] = refs[done+n].Kind, refs[done+n].Addr
		}
		consumed, block, err := m.ExecBatchColumnar(pid, sc.kinds[:n], sc.addrs[:n])
		done += consumed
		if err != nil || block != 0 || consumed < n {
			return done, block, err
		}
	}
	return done, 0, nil
}

// observeDRAM forwards an observer to DRAM devices that expose probes
// (the banked RDRAM's row-buffer events); flat devices are stateless
// and have nothing to report.
func observeDRAM(d dram.Device, obs metrics.Observer) {
	if o, ok := d.(interface{ SetObserver(metrics.Observer) }); ok {
		o.SetObserver(obs)
	}
}

// l1pair is the split L1 of §4.3 shared by all machines: 16 KB each of
// direct-mapped, physically-indexed instruction and data cache with
// 32-byte blocks.
type l1pair struct {
	inst *cache.Cache
	data *cache.Cache
}

func newL1Pair(p Params) (l1pair, error) {
	mk := func(name string, seedOff uint64) (*cache.Cache, error) {
		return cache.New(cache.Config{
			Name:       name,
			SizeBytes:  p.L1Bytes,
			BlockBytes: p.L1Block,
			Assoc:      p.L1Assoc,
			Policy:     cache.LRU,
			Seed:       p.Seed + seedOff,
		})
	}
	inst, err := mk("L1i", 1)
	if err != nil {
		return l1pair{}, err
	}
	data, err := mk("L1d", 2)
	if err != nil {
		return l1pair{}, err
	}
	return l1pair{inst: inst, data: data}, nil
}

// side returns the cache a reference kind uses.
func (l l1pair) side(kind mem.RefKind) *cache.Cache {
	if kind.IsData() {
		return l.data
	}
	return l.inst
}

// purgeRange invalidates [addr, addr+size) from both L1 sides,
// charging one cycle per present block (tag probe + invalidate) to the
// owning side and the write-back penalty for dirty data blocks. It
// returns the number of dirty blocks purged so the caller can mark the
// underlying page dirty. This is the inclusion-maintenance cost the
// paper's figures show as the (small) L1i/L1d time.
func (l l1pair) purgeRange(addr mem.PAddr, size uint64, rep *stats.Report, wbPenalty mem.Cycles) (dirtyBlocks int) {
	l.inst.InvalidateRange(addr, size, func(b mem.PAddr, dirty bool) {
		rep.Charge(stats.L1I, 1)
	})
	l.data.InvalidateRange(addr, size, func(b mem.PAddr, dirty bool) {
		rep.Charge(stats.L1D, 1)
		if dirty {
			rep.Charge(stats.L2, wbPenalty)
			dirtyBlocks++
		}
	})
	return dirtyBlocks
}
