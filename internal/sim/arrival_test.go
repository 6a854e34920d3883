package sim

import (
	"reflect"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
)

// runRef executes one application reference to completion, idling the
// machine to the page's arrival and retrying whenever it blocks.
func runRef(t *testing.T, m Machine, ref mem.Ref) {
	t.Helper()
	for {
		block, err := exec1(m, ref)
		if err != nil {
			t.Fatal(err)
		}
		if block == 0 {
			return
		}
		m.AdvanceTo(block)
	}
}

// codeLoop is PID 2's warm instruction loop: 64 fetches over eight L1
// blocks of one page, one cycle each once warm.
func codeLoop(i int) mem.VAddr { return mem.VAddr(0x400000 + uint64(i%64)*4) }

// pid2Data is the first byte of PID 2's i-th 1 KB data page.
func pid2Data(i int) mem.VAddr { return mem.VAddr(0x2000000 + uint64(i)*1024) }

// inFlightCS builds a switch-on-miss machine in which PID 2's code loop
// and 150 data pages are resident — the first data pages long gone
// from the 64-entry TLB — and PID 1 has just faulted, leaving its page
// in flight.
func inFlightCS(t *testing.T) Machine {
	t.Helper()
	r := testRAMpage(t, 4000, 1024, true)
	for i := 0; i < 64; i++ {
		runRef(t, r, mem.Ref{PID: 2, Kind: mem.IFetch, Addr: codeLoop(i)})
	}
	for i := 0; i < 150; i++ {
		runRef(t, r, mem.Ref{PID: 2, Kind: mem.Load, Addr: pid2Data(i)})
	}
	for i := 0; i < 64; i++ {
		runRef(t, r, mem.Ref{PID: 2, Kind: mem.IFetch, Addr: codeLoop(i)})
	}
	if block, err := exec1(r, uref(1, mem.Load, 0x9000000)); err != nil || block == 0 {
		t.Fatalf("PID 1 fault = %d, %v; want a block", block, err)
	}
	return r
}

// inFlightPrefetch builds an adaptive machine (never switch-on-miss)
// whose in-flight page is a next-page prefetch: PID 1's demand fault
// stalls, then starts the transfer of the following page.
func inFlightPrefetch(t *testing.T) Machine {
	t.Helper()
	a, err := NewAdaptiveRAMpage(AdaptiveConfig{
		RAMpageConfig: RAMpageConfig{
			Params:       DefaultParams(4000),
			SRAMBytes:    256<<10 + 8<<10,
			PageBytes:    1024,
			PrefetchNext: true,
		},
		// Short epochs split every window into many sub-batches; one
		// permitted page size keeps the controller from resizing.
		MinPage:   1024,
		MaxPage:   1024,
		EpochRefs: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		runRef(t, a, mem.Ref{PID: 2, Kind: mem.IFetch, Addr: codeLoop(i)})
	}
	runRef(t, a, uref(1, mem.Load, 0x9000000))
	if len(a.inFlight) == 0 {
		t.Fatal("no prefetch in flight")
	}
	return a
}

// arrivalOf returns the machine's earliest in-flight arrival and its
// in-flight bookkeeping.
func arrivalOf(m Machine) (mem.Cycles, []inFlightPage) {
	var r *RAMpage
	switch v := m.(type) {
	case *RAMpage:
		r = v
	case *AdaptiveRAMpage:
		r = v.RAMpage
	}
	return r.nextArrival(), append([]inFlightPage(nil), r.inFlight...)
}

// requireArrivalStop offers PID 2's window kinds/addrs through exec to
// a machine from setup with a page in flight. The first call must stop
// unblocked, consuming exactly the references that start before the
// earliest arrival in a one-reference run of the same window, which it
// returns; the stopped machine's report and in-flight pages must equal
// that run's after as many references. Re-offering the rest to
// completion must reproduce the one-reference run's final state. The
// one-reference machine has an observer attached, which keeps every
// reference — handler traces included — on the per-reference path.
func requireArrivalStop(t *testing.T, setup func(*testing.T) Machine, kinds []mem.RefKind, addrs []mem.VAddr,
	exec func(m Machine, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error)) int {
	t.Helper()
	one, wide := setup(t), setup(t)
	one.SetObserver(metrics.NewCollector(0))
	arrival, _ := arrivalOf(one)
	stop := -1
	var atStop stats.Report
	var flightAtStop []inFlightPage
	for i := range kinds {
		if stop < 0 && one.Now() >= arrival {
			stop = i
			atStop = *one.Report()
			_, flightAtStop = arrivalOf(one)
		}
		if n, block, err := one.ExecBatchColumnar(2, kinds[i:i+1], addrs[i:i+1]); n != 1 || block != 0 || err != nil {
			t.Fatalf("1-wide ref %d = %d, %d, %v", i, n, block, err)
		}
	}
	if stop < 0 {
		t.Fatalf("the window ends at %d, before the arrival at %d", one.Now(), arrival)
	}

	n, block, err := exec(wide, kinds, addrs)
	if n != stop || block != 0 || err != nil {
		t.Fatalf("window with a page in flight = %d, %d, %v; want %d, 0, <nil> (arrival %d)", n, block, err, stop, arrival)
	}
	requireSameState(t, "at the stop", &atStop, flightAtStop, wide)
	for done := n; done < len(kinds); {
		n, block, err := exec(wide, kinds[done:], addrs[done:])
		if n == 0 || block != 0 || err != nil {
			t.Fatalf("resumed window at %d = %d, %d, %v", done, n, block, err)
		}
		done += n
	}
	_, oneFlight := arrivalOf(one)
	requireSameState(t, "at the end", one.Report(), oneFlight, wide)
	return stop
}

// requireSameState compares m's report and in-flight pages with the
// one-reference run's.
func requireSameState(t *testing.T, when string, rep *stats.Report, flight []inFlightPage, m Machine) {
	t.Helper()
	if !reflect.DeepEqual(rep, m.Report()) {
		t.Errorf("reports diverge %s:\n1-wide: %+v\nwide:   %+v", when, rep, m.Report())
	}
	if _, got := arrivalOf(m); !reflect.DeepEqual(flight, got) {
		t.Errorf("in-flight pages diverge %s: 1-wide %v, wide %v", when, flight, got)
	}
}

func execCols(m Machine, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	return m.ExecBatchColumnar(2, kinds, addrs)
}

func execAsRows(m Machine, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	refs := make([]mem.Ref, len(kinds))
	for i := range refs {
		refs[i] = mem.Ref{PID: 2, Kind: kinds[i], Addr: addrs[i]}
	}
	return m.ExecBatch(refs)
}

// loopWindow is n fetches of PID 2's warm code loop.
func loopWindow(n int) ([]mem.RefKind, []mem.VAddr) {
	kinds := make([]mem.RefKind, n)
	addrs := make([]mem.VAddr, n)
	for i := range kinds {
		kinds[i], addrs[i] = mem.IFetch, codeLoop(i)
	}
	return kinds, addrs
}

// TestWindowStopsAtArrival pins the ColumnarMachine contract for a
// window offered while a page is in flight: it stops unblocked before
// the first reference that would start at or after the arrival, through
// every batch entry point, with reports equal to the one-reference run.
// The windows span several row-adapter runs and adaptive epochs, so a
// caller that carried on past a short sub-batch would fail.
func TestWindowStopsAtArrival(t *testing.T) {
	kinds, addrs := loopWindow(20_000)
	for _, tc := range []struct {
		name  string
		setup func(*testing.T) Machine
		exec  func(Machine, []mem.RefKind, []mem.VAddr) (int, mem.Cycles, error)
	}{
		{"columnar", inFlightCS, execCols},
		{"rows", inFlightCS, execAsRows},
		{"adaptive-columnar", inFlightPrefetch, execCols},
		{"adaptive-rows", inFlightPrefetch, execAsRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if stop := requireArrivalStop(t, tc.setup, kinds, addrs, tc.exec); stop <= rowWindow {
				t.Errorf("stop at %d lands in the first row run; the scenario must cross sub-batches", stop)
			}
		})
	}
}

// TestWindowStopsAtArrivalAfterTLBHandler is the regression case for a
// TLB-miss handler that runs across the arrival inside a fused window.
// The handler's trace unpins the page that has just landed, yet the
// window must still stop right after the missing reference: the
// machine may only lower the arrival bound it fixed on entry.
func TestWindowStopsAtArrivalAfterTLBHandler(t *testing.T) {
	probe := inFlightCS(t)
	arrival, _ := arrivalOf(probe)
	lead := int(arrival-probe.Now()) - 5 // warm fetches, one cycle each
	kinds, addrs := loopWindow(lead + 2000)
	// PID 2's first data page is resident but long out of the TLB.
	kinds[lead], addrs[lead] = mem.Load, pid2Data(0)
	for _, tc := range []struct {
		name string
		exec func(Machine, []mem.RefKind, []mem.VAddr) (int, mem.Cycles, error)
	}{
		{"columnar", execCols},
		{"rows", execAsRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			misses := probe.Report().TLBMisses
			faults := probe.Report().PageFaults
			if stop := requireArrivalStop(t, inFlightCS, kinds, addrs, tc.exec); stop != lead+1 {
				t.Errorf("stop at %d, want %d: the TLB miss must start before the arrival and end after it", stop, lead+1)
			}
			one := inFlightCS(t)
			if _, _, err := one.ExecBatchColumnar(2, kinds[:lead+1], addrs[:lead+1]); err != nil {
				t.Fatal(err)
			}
			if got := one.Report(); got.TLBMisses != misses+1 || got.PageFaults != faults {
				t.Errorf("scenario: %d TLB misses and %d faults, want one TLB miss and no fault",
					got.TLBMisses-misses, got.PageFaults-faults)
			}
		})
	}
}
