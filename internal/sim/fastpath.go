package sim

import (
	"fmt"

	"rampage/internal/cache"
	"rampage/internal/core"
	"rampage/internal/mem"
	"rampage/internal/pagetable"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/tlb"
)

// This file holds the fused TLB→L1 fast paths: ExecBatchColumnar's
// common case — a user reference whose translation is in the TLB and
// whose block is in a direct-mapped L1 — collapsed into a single
// branch-predictable loop over flattened columnar views (tlb.Hot,
// cache.DMHot, core.Hot). Statistics for fast references accumulate in
// batch-local counters and are flushed before any fallback, so every
// observable value (reports, level times, cache/TLB/core counters) is
// bit-identical to the per-reference slow path. The fast paths are gated on
// obs == nil: with probes attached the per-event observer streams must
// stay intact, so the machines run the exact per-reference code.
//
// The loops hoist every Hot-view field — slice headers and shift
// scalars — into locals before entering, and the flush helpers take the
// batch counters by value. Both keep the hot state in registers: the
// in-loop stores (filter repair, dirty bits) would otherwise defeat
// alias analysis and force per-iteration reloads, and a flush closure
// would pin the counters to addressable stack slots.

// fastL1 captures the direct-mapped L1 views once at construction; the
// slices alias the caches' live columns and stay current for the
// machine's lifetime.
type fastL1 struct {
	ok       bool
	l1i, l1d cache.DMHot
}

func newFastL1(l1 l1pair) fastL1 {
	ih, iok := l1.inst.DirectHot()
	dh, dok := l1.data.DirectHot()
	if !iok || !dok {
		return fastL1{}
	}
	return fastL1{ok: true, l1i: ih, l1d: dh}
}

// tlbScan is the set-scan half of the tlb.Hot lookup contract, taken
// when the inline filter probe misses: the same two-compare match as
// the TLB's own lookup (the key packs the low 16 PID bits; a full-
// width vpn match forces the rest), repairing the filter on a hit. A
// miss here is a true TLB miss with no state touched. Kept out of line
// so the batch loops' common case — a filter hit — stays small enough
// to inline.
func tlbScan(h *tlb.Hot, key, vpn, fidx, addr uint64) (pa uint64, hit bool) {
	base := (vpn & h.SetMask) * h.Assoc
	keys := h.Keys[base : base+h.Assoc]
	for i := range keys {
		if keys[i] == key && h.VPNs[base+uint64(i)] == vpn {
			h.Filter[fidx] = int32(base + uint64(i))
			return h.Frames[base+uint64(i)]<<h.PageShift | addr&h.OffMask, true
		}
	}
	return 0, false
}

// countRefs is countRef, n references at a time.
func countRefs(rep *stats.Report, class RefClass, n uint64) {
	switch class {
	case ClassBench:
		rep.BenchRefs += n
	case ClassTLB:
		rep.OSTLBRefs += n
	case ClassFault:
		rep.OSFaultRefs += n
	case ClassSwitch:
		rep.OSSwitchRefs += n
	}
}

// flushFast settles the batch-local fast-path counters into the
// machine's observable statistics. Taking them by value keeps the
// loop's accumulators in registers.
func (b *Baseline) flushFast(tlbHits, l1iHits, l1dHits, ifetches uint64) {
	b.rep.TLBHits += tlbHits
	b.rep.BenchRefs += tlbHits
	b.fastTLB.Stats.Hits += tlbHits
	b.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	b.fast.l1i.Stats.Hits += l1iHits
	b.fast.l1d.Stats.Hits += l1dHits
}

// flushTraceFast is flushFast for handler-trace references, which count
// against the handler class instead of TLBHits/BenchRefs.
func (b *Baseline) flushTraceFast(class RefClass, count, l1iHits, l1dHits, ifetches uint64) {
	countRefs(&b.rep, class, count)
	b.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	b.fast.l1i.Stats.Hits += l1iHits
	b.fast.l1d.Stats.Hits += l1dHits
}

// execTraceFast is Baseline.ExecTrace's fused loop for handler traces,
// which are (almost) entirely kernel-tagged: translation is an identity
// bounds check, so only the L1 probe remains.
func (b *Baseline) execTraceFast(refs []mem.Ref, class RefClass) error {
	ih, dh := &b.fast.l1i, &b.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	kernelBytes := b.kernelBytes
	var count, l1iHits, l1dHits, ifetches uint64
	for i := range refs {
		ref := refs[i]
		if ref.PID == mem.KernelPID {
			off := uint64(ref.Addr) - synth.KernelBase
			if uint64(ref.Addr) >= synth.KernelBase && off < kernelBytes {
				count++
				if ref.Kind == mem.IFetch {
					block := off >> iBlockShift
					set := block & iSetMask
					if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
						ifetches++
						l1iHits++
						continue
					}
				} else {
					block := off >> dBlockShift
					set := block & dSetMask
					if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
						l1dHits++
						if ref.Kind == mem.Store {
							dDirty[set] = true
						}
						continue
					}
				}
				b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
				count, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
				b.accessL1(ref.Kind, mem.PAddr(off))
				continue
			}
		}
		// User reference or out-of-range kernel address: the per-
		// reference path (which also produces the exact error text).
		b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
		count, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		if err := b.execOne(ref, class); err != nil {
			return err
		}
	}
	b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
	return nil
}

// flushFast settles the batch-local fast-path counters (see
// Baseline.flushFast); mh is the core.Hot captured for this batch.
func (r *RAMpage) flushFast(mh *core.Hot, tlbHits, l1iHits, l1dHits, ifetches uint64) {
	r.rep.TLBHits += tlbHits
	r.rep.BenchRefs += tlbHits
	mh.TLB.Stats.Hits += tlbHits
	mh.Stats.Translations += tlbHits
	r.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	r.fast.l1i.Stats.Hits += l1iHits
	r.fast.l1d.Stats.Hits += l1dHits
}

// flushTraceFast is flushFast for handler-trace references: kernel
// translations count as core translations but not TLB hits.
func (r *RAMpage) flushTraceFast(mh *core.Hot, class RefClass, count, translations, l1iHits, l1dHits, ifetches uint64) {
	countRefs(&r.rep, class, count)
	mh.Stats.Translations += translations
	r.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	r.fast.l1i.Stats.Hits += l1iHits
	r.fast.l1d.Stats.Hits += l1dHits
}

// execTraceFast is RAMpage.ExecTrace's fused loop for handler traces.
// Kernel references translate by identity bounds check against the
// pinned OS region and hit SRAM at worst. Called with obs == nil,
// direct-mapped L1s and no prefetch pending; returns the count consumed
// before a fallback broke that gate.
//
// Pages may be in flight. The per-reference path unpins every transfer
// that has landed before each reference; here the trace runs in slices
// that end before the clock can reach the earliest arrival (a fused hit
// advances it by at most one cycle), and the slice boundary does the
// unpin once the clock gets there. Every fallback re-bounds the slice.
func (r *RAMpage) execTraceFast(refs []mem.Ref, class RefClass) (int, error) {
	mh := &r.mmHot
	ptFlags, mmShift := mh.PTFlags, mh.PageShift
	ih, dh := &r.fast.l1i, &r.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	kernelLimit := r.kernelLimit
	arrival := r.nextArrival()
	var count, translations, l1iHits, l1dHits, ifetches uint64
	done := 0
slices:
	for done < len(refs) {
		if r.rep.Cycles >= arrival {
			r.unpinCompleted()
			arrival = r.nextArrival()
		}
		slice := refs[done:sliceEnd(done, len(refs), r.rep.Cycles, arrival)]
		for i := range slice {
			ref := slice[i]
			if ref.PID == mem.KernelPID {
				off := uint64(ref.Addr) - synth.KernelBase
				if uint64(ref.Addr) >= synth.KernelBase && off < kernelLimit {
					count++
					translations++
					if ref.Kind == mem.IFetch {
						block := off >> iBlockShift
						set := block & iSetMask
						if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
							ifetches++
							l1iHits++
							continue
						}
					} else {
						if ref.Kind == mem.Store {
							ptFlags[off>>mmShift] |= pagetable.FlagDirty
						}
						block := off >> dBlockShift
						set := block & dSetMask
						if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
							l1dHits++
							if ref.Kind == mem.Store {
								dDirty[set] = true
							}
							continue
						}
					}
					r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
					count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
					r.accessL1(ref.Kind, mem.PAddr(off))
					done += i + 1
					continue slices
				}
			}
			// User reference (or out-of-range kernel address): the per-
			// reference path; it can fault and start transfers, breaking
			// the gate.
			r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
			count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
			block, err := r.execOne(ref, class)
			if err != nil {
				return done + i, err
			}
			if block != 0 {
				return done + i, fmt.Errorf("sim: pinned OS reference faulted")
			}
			if len(r.pending) != 0 {
				return done + i + 1, nil
			}
			done += i + 1
			continue slices
		}
		r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
		count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
		done += len(slice)
	}
	return len(refs), nil
}

// ExecBatchColumnar implements Machine: the fused loop when the gate
// holds, otherwise the per-reference slow path.
func (b *Baseline) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	if b.obs == nil && b.fast.ok && pid != mem.KernelPID {
		return b.execColsFast(pid, kinds, addrs)
	}
	for i := range kinds {
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if pid != mem.KernelPID {
			if pa, hit := b.tlb.TryLookup(pid, ref.Addr); hit {
				b.rep.TLBHits++
				b.rep.BenchRefs++
				b.accessL1(ref.Kind, pa)
				continue
			}
		}
		if err := b.execOne(ref, ClassBench); err != nil {
			return i, 0, err
		}
	}
	return len(kinds), 0, nil
}

// execColsFast is Baseline.ExecBatchColumnar's fused inner loop, only
// called with obs == nil, direct-mapped L1s and a user PID. The
// window's single PID hoists both the kernel check and the key/filter
// PID terms out of the loop, and each iteration loads 9 bytes instead
// of a 16-byte row.
func (b *Baseline) execColsFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	th := &b.fastTLB
	keys, vpns, frames, filter := th.Keys, th.VPNs, th.Frames, th.Filter
	pageShift, offMask := th.PageShift, th.OffMask
	ih, dh := &b.fast.l1i, &b.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	pidTerm := uint64(pid)
	addrs = addrs[:len(kinds)]
	var tlbHits, l1iHits, l1dHits, ifetches uint64
	for i := range kinds {
		kind, addr := kinds[i], uint64(addrs[i])
		vpn := addr >> pageShift
		key := tlb.PackKey(pid, vpn)
		fidx := (vpn ^ pidTerm) & tlb.FilterMask
		fi := uint64(filter[fidx])
		var pa uint64
		hit := keys[fi] == key && vpns[fi] == vpn
		if hit {
			pa = frames[fi]<<pageShift | addr&offMask
		} else {
			pa, hit = tlbScan(th, key, vpn, fidx, addr)
		}
		if hit {
			tlbHits++
			if kind == mem.IFetch {
				block := pa >> iBlockShift
				set := block & iSetMask
				if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
					ifetches++
					l1iHits++
					continue
				}
			} else {
				block := pa >> dBlockShift
				set := block & dSetMask
				if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
					l1dHits++
					if kind == mem.Store {
						dDirty[set] = true
					}
					continue
				}
			}
			b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			b.accessL1(kind, mem.PAddr(pa))
			continue
		}
		// True TLB miss: the per-reference miss machinery.
		b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
		tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		if err := b.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench); err != nil {
			return i, 0, err
		}
	}
	b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
	return len(kinds), 0, nil
}

// ExecBatchColumnar implements Machine. The fast path — a user
// reference whose translation hits the TLB — skips the per-reference
// event machinery entirely; TLB misses, faults and pending prefetches
// fall back to the per-reference path. A blocking reference stops the
// batch unconsumed.
//
// While pages are in flight the batch also stops, with a nil error and
// no block time, just before the first reference that would start at
// or after the earliest arrival: the scheduler's resume-on-arrival
// check runs between windows, so it sees exactly the references the
// one-reference model shows it. The arrival is fixed on entry and only
// lowered afterwards: a TLB-miss handler inside the batch may unpin the
// page that has just landed, and the stop must still hold.
func (r *RAMpage) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	r.unpinCompleted()
	arrival := r.nextArrival()
	i := 0
	for i < len(kinds) {
		if r.rep.Cycles >= arrival {
			return i, 0, nil
		}
		if r.fast.ok && r.obs == nil && pid != mem.KernelPID && len(r.pending) == 0 {
			n, block, err := r.execColsFast(pid, kinds[i:], addrs[i:], arrival)
			i += n
			if err != nil {
				return i, 0, err
			}
			if block != 0 {
				return i, block, nil
			}
			arrival = min(arrival, r.nextArrival())
			continue
		}
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if len(r.pending) == 0 {
			if pa, ok := r.mm.TranslateHit(pid, ref.Addr, ref.Kind == mem.Store); ok {
				r.rep.TLBHits++
				r.rep.BenchRefs++
				r.accessL1(ref.Kind, pa)
				i++
				continue
			}
		}
		block, err := r.execOne(ref, ClassBench)
		if err != nil {
			return i, 0, err
		}
		if block != 0 {
			return i, block, nil
		}
		arrival = min(arrival, r.nextArrival())
		i++
	}
	return len(kinds), 0, nil
}

// sliceEnd bounds the next fused slice of a window that runs from done
// to n: a fused hit advances the clock by at most one cycle, so none of
// the next arrival−now references starts at or after arrival. Called
// only with now < arrival.
func sliceEnd(done, n int, now, arrival mem.Cycles) int {
	if span := arrival - now; span < mem.Cycles(n-done) {
		return done + int(span)
	}
	return n
}

// execColsFast is RAMpage.ExecBatchColumnar's fused inner loop (see
// Baseline.execColsFast for the shape). Only called with obs == nil,
// direct-mapped L1s, a user PID, no prefetch pending and the clock
// before arrival. It runs the window in slices bounded by sliceEnd,
// re-bounding after every fallback, and returns early (consumed <
// len(kinds)) when the clock reaches arrival or a fallback breaks the
// gate, so the caller can stop or resume on the per-reference path.
func (r *RAMpage) execColsFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, arrival mem.Cycles) (int, mem.Cycles, error) {
	mh := &r.mmHot
	th := &mh.TLB
	keys, vpns, frames, filter := th.Keys, th.VPNs, th.Frames, th.Filter
	pageShift, offMask := th.PageShift, th.OffMask
	ptFlags, mmShift := mh.PTFlags, mh.PageShift
	ih, dh := &r.fast.l1i, &r.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	pidTerm := uint64(pid)
	var tlbHits, l1iHits, l1dHits, ifetches uint64
	done := 0
slices:
	for done < len(kinds) {
		if r.rep.Cycles >= arrival {
			return done, 0, nil
		}
		end := sliceEnd(done, len(kinds), r.rep.Cycles, arrival)
		ks, as := kinds[done:end], addrs[done:end]
		for i := range ks {
			kind, addr := ks[i], uint64(as[i])
			vpn := addr >> pageShift
			key := tlb.PackKey(pid, vpn)
			fidx := (vpn ^ pidTerm) & tlb.FilterMask
			fi := uint64(filter[fidx])
			var pa uint64
			hit := keys[fi] == key && vpns[fi] == vpn
			if hit {
				pa = frames[fi]<<pageShift | addr&offMask
			} else {
				pa, hit = tlbScan(th, key, vpn, fidx, addr)
			}
			if hit {
				tlbHits++
				if kind == mem.IFetch {
					block := pa >> iBlockShift
					set := block & iSetMask
					if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
						ifetches++
						l1iHits++
						continue
					}
				} else {
					if kind == mem.Store {
						ptFlags[pa>>mmShift] |= pagetable.FlagDirty
					}
					block := pa >> dBlockShift
					set := block & dSetMask
					if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
						l1dHits++
						if kind == mem.Store {
							dDirty[set] = true
						}
						continue
					}
				}
				r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
				tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
				r.accessL1(kind, mem.PAddr(pa))
				done += i + 1
				continue slices
			}
			// True TLB miss: the per-reference miss machinery. The gate
			// held on entry and after every previous fallback.
			r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			block, err := r.execOne(mem.Ref{PID: pid, Kind: kind, Addr: as[i]}, ClassBench)
			if err != nil {
				return done + i, 0, err
			}
			if block != 0 {
				return done + i, block, nil
			}
			if len(r.pending) != 0 {
				// A prefetch is pending: the fast gate is broken, resume
				// per-reference.
				return done + i + 1, 0, nil
			}
			done += i + 1
			continue slices
		}
		r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
		tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		done = end
	}
	return len(kinds), 0, nil
}

// Release returns pooled resources — the inverted page table's arena
// slabs — for reuse by the next machine with the same geometry. The
// machine must not execute references afterwards; its report remains
// readable.
func (b *Baseline) Release() { b.pt.Recycle() }

// Release returns pooled resources (see Baseline.Release).
func (r *RAMpage) Release() { r.mm.Recycle() }
