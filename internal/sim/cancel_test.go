package sim

import (
	"context"
	"errors"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/trace"
)

// pollCounter counts the scheduler's cancellation polls.
type pollCounter struct {
	context.Context
	polls int
}

func (c *pollCounter) Err() error {
	c.polls++
	return c.Context.Err()
}

// windowProbe counts the windows the scheduler hands a machine and
// cancels the run's context as the window cancelAt selects starts.
type windowProbe struct {
	Machine
	ctx      *pollCounter
	cancel   context.CancelFunc
	cancelAt func(p *windowProbe, width int) bool

	wide, one   int // windows executed, by width
	canceled    bool
	pollsAt     int // polls made before the cancelling window
	afterCancel int // windows executed after the cancelling one
}

func (m *windowProbe) window(width int) {
	if m.canceled {
		m.afterCancel++
	}
	if width == 1 {
		m.one++
	} else {
		m.wide++
	}
	if !m.canceled && m.cancelAt != nil && m.cancelAt(m, width) {
		m.cancel()
		m.canceled = true
		m.pollsAt = m.ctx.polls
	}
}

func (m *windowProbe) ExecBatch(refs []mem.Ref) (int, mem.Cycles, error) {
	m.window(len(refs))
	return m.Machine.ExecBatch(refs)
}

func (m *windowProbe) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	m.window(len(kinds))
	return m.Machine.ExecBatchColumnar(pid, kinds, addrs)
}

// faultingStream touches a new 256-byte stride every other reference,
// so a RAMpage machine with 4 KB pages faults every 32 references.
func faultingStream(base uint64) []mem.Ref {
	var refs []mem.Ref
	for i := 0; i < 2000; i++ {
		refs = append(refs, mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i*256))})
		refs = append(refs, mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%256)})
	}
	return refs
}

func columnarReader(t *testing.T, refs []mem.Ref) trace.Reader {
	t.Helper()
	buf, err := trace.CaptureColumnar(trace.NewSliceReader(refs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewColumnarReader(buf)
}

// runProbed runs m over readers with a poll-counting context and a
// window probe, returning the probe and Run's error.
func runProbed(t *testing.T, m Machine, readers []trace.Reader, cfg SchedulerConfig,
	cancelAt func(p *windowProbe, width int) bool) (*windowProbe, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pc := &pollCounter{Context: ctx}
	probe := &windowProbe{Machine: m, ctx: pc, cancel: cancel, cancelAt: cancelAt}
	s, err := NewScheduler(probe, readers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(pc)
	if probe.one+probe.wide == 0 {
		t.Fatal("no windows executed")
	}
	return probe, err
}

// TestSchedulerCancellation cancels runs mid-stream and requires Run to
// return context.Canceled at the next poll with nothing executed after
// it: wide windows poll once each, so a cancel lands after the current
// window; one-reference windows share the ctxCheckMask budget, so at
// most that many more run.
func TestSchedulerCancellation(t *testing.T) {
	refs := faultingStream(0x1000000)
	cfg := SchedulerConfig{Quantum: 1000, InsertSwitchTrace: true}
	atWide := func(p *windowProbe, width int) bool { return width > 1 && p.wide == 3 }
	for _, tc := range []struct {
		name    string
		readers func() []trace.Reader
	}{
		{"columnar", func() []trace.Reader {
			return []trace.Reader{columnarReader(t, refs), columnarReader(t, refs)}
		}},
		{"row", func() []trace.Reader {
			return []trace.Reader{trace.NewSliceReader(refs), trace.NewSliceReader(refs)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe, err := runProbed(t, testBaseline(t, 1000, 1024), tc.readers(), cfg, atWide)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			if probe.afterCancel != 0 {
				t.Errorf("%d windows ran after the cancelling wide window", probe.afterCancel)
			}
			if polls := probe.ctx.polls - probe.pollsAt; polls != 1 {
				t.Errorf("%d polls after cancellation, want 1", polls)
			}
		})
	}

	t.Run("rampage-cs-1-wide", func(t *testing.T) {
		readers := func() []trace.Reader {
			return []trace.Reader{trace.NewSliceReader(refs), trace.NewSliceReader(faultingStream(0x8000000))}
		}
		// Uncanceled: one-reference windows must share the poll budget
		// instead of polling per reference.
		probe, err := runProbed(t, testRAMpage(t, 4000, 4096, true), readers(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if probe.one < 2*(ctxCheckMask+1) {
			t.Fatalf("only %d one-reference windows; the workload must keep pages in flight", probe.one)
		}
		budget := 2 + probe.wide + (probe.wide+probe.one+len(readers()))/(ctxCheckMask+1)
		if probe.ctx.polls > budget {
			t.Errorf("%d polls over %d wide and %d one-reference windows, want at most %d",
				probe.ctx.polls, probe.wide, probe.one, budget)
		}

		atOne := func(p *windowProbe, width int) bool { return width == 1 && p.one == 100 }
		probe, err = runProbed(t, testRAMpage(t, 4000, 4096, true), readers(), cfg, atOne)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		if probe.afterCancel > ctxCheckMask {
			t.Errorf("%d windows ran after cancellation, want at most %d", probe.afterCancel, ctxCheckMask)
		}
		if polls := probe.ctx.polls - probe.pollsAt; polls != 1 {
			t.Errorf("%d polls after cancellation, want 1", polls)
		}
	})
}
