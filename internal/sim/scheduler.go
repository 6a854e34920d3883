package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// procState is a simulated process's scheduling state.
type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// proc is one simulated process: a reference stream with scheduling
// state.
type proc struct {
	pid       mem.PID
	r         trace.Reader
	state     procState
	readyAt   mem.Cycles // when blocked: page-arrival time
	sliceLeft uint64     // references remaining in the current time slice
	done      uint64     // references executed from this stream (checkpoint cursor)

	// The window source. col is set when the stream is columnar: windows
	// go to the machine straight from its Tail/Skip cursor. Otherwise
	// buf[bufPos:bufN] holds fetched but not yet executed references;
	// rdErr is the stream's terminal error (io.EOF or a failure),
	// delivered once the buffer drains.
	col    *trace.ColumnarReader
	buf    []mem.Ref
	bufPos int
	bufN   int
	rdErr  error
}

// ready returns how many references the process can offer the next
// window, refilling the row read-ahead buffer when it has drained. Zero
// with a nil error means the stream is exhausted; a stream failure
// surfaces only after the references read before it have executed.
func (p *proc) ready() (int, error) {
	if p.col != nil {
		return int(p.col.Remaining()), nil
	}
	if p.bufPos == p.bufN && p.rdErr == nil {
		if p.buf == nil {
			p.buf = make([]mem.Ref, rowWindow)
		}
		n, err := trace.ReadBatch(p.r, p.buf)
		p.bufPos, p.bufN = 0, n
		p.rdErr = err
		if n == 0 && err == nil {
			p.rdErr = io.EOF // defensive: empty read with no error
		}
	}
	if p.bufPos == p.bufN && !errors.Is(p.rdErr, io.EOF) {
		return 0, p.rdErr
	}
	return p.bufN - p.bufPos, nil
}

// exec runs the next window of n references on m and advances the
// cursor past the consumed ones. A blocking reference stays at the
// cursor, to be retried when its page arrives.
func (p *proc) exec(m Machine, n int) (int, mem.Cycles, error) {
	if p.col != nil {
		kinds, addrs := p.col.Tail()
		consumed, blockUntil, err := m.ExecBatchColumnar(p.pid, kinds[:n], addrs[:n])
		p.col.Skip(consumed)
		return consumed, blockUntil, err
	}
	consumed, blockUntil, err := m.ExecBatch(p.buf[p.bufPos : p.bufPos+n])
	p.bufPos += consumed
	return consumed, blockUntil, err
}

// SchedulerConfig configures the multiprogramming driver.
type SchedulerConfig struct {
	// Quantum is the time slice in references (§4.2: 500,000).
	Quantum uint64
	// InsertSwitchTrace interleaves the ~400-reference context-switch
	// code at every switch (§4.6). Table 3 runs omit it; Tables 4–5
	// include it.
	InsertSwitchTrace bool
	// LightweightThreads replaces the switch code on *miss-induced*
	// switches with a ~40-reference thread switch — the §3.2/§6.3
	// multithreading extension. Quantum-boundary switches still pay
	// the full process-switch cost.
	LightweightThreads bool
	// Seed drives the context-switch trace generator.
	Seed uint64
	// MaxRefs, when non-zero, stops the run after that many
	// application references (for smoke tests and quick sweeps).
	MaxRefs uint64
	// Observer, when non-nil, receives scheduling events (context
	// switches) and periodic Tick calls with the simulated time so it
	// can cut interval snapshots. It never influences scheduling: the
	// report is bit-identical with or without one attached.
	Observer metrics.Observer
}

// readyRing is a fixed-capacity FIFO of process indices with O(1)
// push-front for the resume-on-arrival path (the per-preemption slice
// prepend it replaces allocated on every miss-induced switch). A
// process is enqueued only on its transition to procReady, so at most
// once concurrently: capacity equals the process count and pushes
// cannot overflow.
type readyRing struct {
	buf  []int
	head int
	n    int
}

func newReadyRing(capacity int) readyRing {
	return readyRing{buf: make([]int, capacity)}
}

func (r *readyRing) len() int { return r.n }

func (r *readyRing) pushBack(v int) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *readyRing) pushFront(v int) {
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = v
	r.n++
}

func (r *readyRing) popFront() int {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Scheduler drives a Machine with a multiprogrammed workload.
//
// Time-slice scheduling is round-robin with a fixed reference quantum
// (§4.2). Context switches on misses (§4.6) treat the *miss* as the
// scheduling unit, like a software non-blocking cache: when a page
// fault blocks the running process, another ready process fills the
// gap, and as soon as the page arrives the faulting process preempts
// the fill-in and resumes the remainder of its time slice. Without
// prompt resumption a fault would rotate all working sets through the
// SRAM and amplify faults instead of hiding latency; with it, at most
// a couple of working sets are active between slice boundaries, and
// the trade the paper measures emerges naturally — a switch pair
// (~2×400 references) is only worth taking when the page transfer
// outlasts it, which is why switches on misses pay off as the
// CPU–DRAM gap grows.
type Scheduler struct {
	m      Machine
	cfg    SchedulerConfig
	procs  []*proc
	queue  readyRing
	wakeAt mem.Cycles // earliest blocked readyAt (0 = none)
	kernel *synth.Kernel
	buf    []mem.Ref

	// executed counts application references across the scheduler's
	// whole life, surviving checkpoint restores, so a resumed run stops
	// at the same MaxRefs boundary a from-scratch run would.
	executed uint64
	// resumed and resumeCur arm the restore entry path: the first Run
	// iteration after DecodeState re-enters the restored running process
	// instead of dispatching from the queue (the running process is not
	// queued, so a dispatch would pick the wrong one).
	resumed   bool
	resumeCur int
}

// NewScheduler builds a scheduler over one reader per process; the
// reader for process i is tagged PID i.
func NewScheduler(m Machine, readers []trace.Reader, cfg SchedulerConfig) (*Scheduler, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("sim: scheduler needs at least one process")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = trace.DefaultQuantum
	}
	procs := make([]*proc, len(readers))
	queue := newReadyRing(len(readers))
	for i, r := range readers {
		procs[i] = &proc{pid: mem.PID(i), r: trace.NewRetag(r, mem.PID(i)), sliceLeft: cfg.Quantum}
		if cr, _, ok := trace.ColumnarView(procs[i].r); ok {
			// The retag PID is the process PID, so the columns plus
			// p.pid reproduce p.r's stream exactly.
			procs[i].col = cr
		}
		queue.pushBack(i)
	}
	return &Scheduler{
		m:      m,
		cfg:    cfg,
		procs:  procs,
		queue:  queue,
		kernel: synth.NewKernel(cfg.Seed + 9),
	}, nil
}

// ctxCheckMask throttles context-cancellation polls: ctx.Err takes a
// lock, so the loop asks once per 1024 iterations. A window wider than
// one reference spends the whole budget, so wide windows poll once
// each and only runs of one-reference windows (pages in flight)
// amortize. Cancellation latency stays far below any human-visible
// delay while the steady-state cost is one counter decrement.
const ctxCheckMask = 1<<10 - 1

// Run executes the workload to completion and returns the machine's
// report, stopping early with ctx.Err() when the context is canceled.
//
// Each iteration executes one window of the running process's stream
// with one machine call: column windows go to ExecBatchColumnar, row
// windows to ExecBatch. The window rules make every window size
// bit-identical to the paper's reference-at-a-time model (see
// DESIGN.md's Performance section):
//
//   - the window never exceeds the slice remainder, so quantum
//     boundaries land on exactly the same reference;
//   - while any page is in flight (wakeAt != 0) the window is a single
//     reference, preserving the per-reference resume-on-arrival
//     preemption check and the stall-retry path;
//   - MaxRefs caps the window;
//   - a blocking reference is left unconsumed at the stream cursor and
//     retried after its page arrives.
func (s *Scheduler) Run(ctx context.Context) (*stats.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := s.m.Report()
	cur, ok := s.resumeOrDispatch()
	if !ok {
		return rep, nil
	}
	budget := 0 // iterations left before the next ctx.Err poll
	for {
		if budget == 0 {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			budget = ctxCheckMask + 1
		}
		budget--
		if s.cfg.Observer != nil {
			s.cfg.Observer.Tick(uint64(s.m.Now()))
		}
		if s.cfg.MaxRefs > 0 && s.executed >= s.cfg.MaxRefs {
			return rep, nil
		}
		// Resume-on-arrival: a blocked process whose page has landed
		// preempts the current (fill-in) process immediately.
		if s.wakeAt != 0 && s.m.Now() >= s.wakeAt {
			if woken := s.earliestArrived(); woken >= 0 && woken != cur {
				s.procs[cur].state = procReady
				s.queue.pushFront(cur) // fill-in keeps priority
				if err := s.switchTrace(rep, cur, woken, true); err != nil {
					return rep, err
				}
				s.procs[woken].state = procRunning
				cur = woken
			}
			s.recomputeWake()
		}
		p := s.procs[cur]
		avail, err := p.ready()
		if err != nil {
			return rep, err
		}
		if avail == 0 {
			p.state = procDone
			next, ok := s.dispatch()
			if !ok {
				return rep, nil // all done
			}
			if err := s.switchTrace(rep, cur, next, false); err != nil {
				return rep, err
			}
			cur = next
			continue
		}
		window := uint64(avail)
		if window > p.sliceLeft {
			window = p.sliceLeft
		}
		if s.wakeAt != 0 {
			window = 1 // per-reference checks while transfers are in flight
		}
		if s.cfg.MaxRefs > 0 {
			if left := s.cfg.MaxRefs - s.executed; window > left {
				window = left
			}
		}
		if window > 1 {
			budget = 0
		}
		consumed, blockUntil, err := p.exec(s.m, int(window))
		s.executed += uint64(consumed)
		p.done += uint64(consumed)
		p.sliceLeft -= uint64(consumed)
		if err != nil {
			return rep, err
		}
		if blockUntil != 0 {
			// The reference at the stream cursor faulted and must retry
			// after blockUntil.
			if s.wakeAt != 0 {
				// Another page is already in flight: a second switch
				// would drag a third working set into the SRAM and
				// amplify faults instead of hiding latency. Stall this
				// (fill-in) process until its own page arrives; the
				// loop-top preemption hands control back to the
				// original faulter the moment its page lands.
				s.m.AdvanceTo(blockUntil)
				continue
			}
			// Page fault with switch-on-miss: block this process and
			// run something else while the page is in flight (§4.6).
			s.blockProc(rep, cur, blockUntil)
			next, err := s.resumeAfterBlock(rep, cur)
			if err != nil {
				return rep, err
			}
			cur = next
			continue
		}
		if p.sliceLeft == 0 {
			next, err := s.quantumBoundary(rep, cur)
			if err != nil {
				return rep, err
			}
			cur = next
		}
	}
}

// blockProc records a page-fault block for the current process
// (switch-on-miss, §4.6) and updates the wake bookkeeping.
func (s *Scheduler) blockProc(rep *stats.Report, cur int, blockUntil mem.Cycles) {
	p := s.procs[cur]
	p.state = procBlocked
	p.readyAt = blockUntil
	rep.SwitchesOnMiss++
	if s.cfg.Observer != nil {
		s.cfg.Observer.Count(metrics.EvSwitchOnMiss, 1)
	}
	if s.wakeAt == 0 || blockUntil < s.wakeAt {
		s.wakeAt = blockUntil
	}
}

// resumeAfterBlock dispatches the fill-in process after a block and
// charges the miss-induced switch trace.
func (s *Scheduler) resumeAfterBlock(rep *stats.Report, cur int) (int, error) {
	next, ok := s.dispatch()
	if !ok {
		return -1, fmt.Errorf("sim: no runnable process while pages in flight")
	}
	if err := s.switchTrace(rep, cur, next, true); err != nil {
		return -1, err
	}
	return next, nil
}

// quantumBoundary handles an expired time slice: refresh the slice,
// admit arrived processes and rotate round-robin.
func (s *Scheduler) quantumBoundary(rep *stats.Report, cur int) (int, error) {
	p := s.procs[cur]
	p.sliceLeft = s.cfg.Quantum
	s.admitUnblocked()
	if s.queue.len() == 0 {
		return cur, nil
	}
	// Round-robin: the running process goes to the back.
	p.state = procReady
	s.queue.pushBack(cur)
	next, _ := s.dispatch()
	if next != cur {
		rep.Switches++
		if s.cfg.Observer != nil {
			s.cfg.Observer.Count(metrics.EvContextSwitch, 1)
		}
		if err := s.switchTrace(rep, cur, next, false); err != nil {
			return cur, err
		}
	}
	return next, nil
}

// dispatch pops the next runnable process off the FIFO queue, first
// admitting any blocked processes whose pages have arrived and idling
// the machine forward when nothing is ready but transfers are in
// flight. ok is false when every process is done.
func (s *Scheduler) dispatch() (int, bool) {
	s.admitUnblocked()
	for s.queue.len() == 0 {
		if !s.waitForBlocked() {
			return -1, false
		}
		s.admitUnblocked()
	}
	next := s.queue.popFront()
	s.procs[next].state = procRunning
	return next, true
}

// resumeOrDispatch is the Run-loop entry point: after a checkpoint
// restore it re-enters the restored running process (which DecodeState
// left out of the ready queue, exactly as the original run did); on a
// fresh start it dispatches normally.
func (s *Scheduler) resumeOrDispatch() (int, bool) {
	if s.resumed {
		s.resumed = false
		if s.resumeCur >= 0 {
			return s.resumeCur, true
		}
	}
	return s.dispatch()
}

// Executed returns the number of application references executed so
// far, accumulated across checkpoint restores.
func (s *Scheduler) Executed() uint64 { return s.executed }

// earliestArrived returns the blocked process with the earliest
// readyAt that has already arrived, or -1.
func (s *Scheduler) earliestArrived() int {
	now := s.m.Now()
	best := -1
	for i, p := range s.procs {
		if p.state == procBlocked && p.readyAt <= now {
			if best < 0 || p.readyAt < s.procs[best].readyAt {
				best = i
			}
		}
	}
	return best
}

// recomputeWake refreshes the earliest blocked arrival time.
func (s *Scheduler) recomputeWake() {
	s.wakeAt = 0
	for _, p := range s.procs {
		if p.state == procBlocked && (s.wakeAt == 0 || p.readyAt < s.wakeAt) {
			s.wakeAt = p.readyAt
		}
	}
}

// admitUnblocked moves blocked processes whose pages have arrived onto
// the ready queue, in arrival order.
func (s *Scheduler) admitUnblocked() {
	now := s.m.Now()
	for {
		best := -1
		for i, p := range s.procs {
			if p.state == procBlocked && p.readyAt <= now {
				if best < 0 || p.readyAt < s.procs[best].readyAt {
					best = i
				}
			}
		}
		if best < 0 {
			s.recomputeWake()
			return
		}
		s.procs[best].state = procReady
		s.queue.pushBack(best)
	}
}

// waitForBlocked advances time to the earliest blocked process's
// page arrival. It reports false when no process is blocked (the
// workload is complete).
func (s *Scheduler) waitForBlocked() bool {
	var earliest mem.Cycles
	found := false
	for _, p := range s.procs {
		if p.state == procBlocked && (!found || p.readyAt < earliest) {
			earliest = p.readyAt
			found = true
		}
	}
	if !found {
		return false
	}
	s.m.AdvanceTo(earliest)
	return true
}

// switchTrace interleaves the context-switch code trace when
// configured. Miss-induced switches use the lightweight thread-switch
// trace when LightweightThreads is set.
func (s *Scheduler) switchTrace(rep *stats.Report, from, to int, onMiss bool) error {
	if to == from {
		return nil
	}
	if s.cfg.InsertSwitchTrace {
		if onMiss && s.cfg.LightweightThreads {
			s.buf = s.kernel.AppendThreadSwitch(s.buf[:0], s.procs[from].pid, s.procs[to].pid)
		} else {
			s.buf = s.kernel.AppendContextSwitch(s.buf[:0], s.procs[from].pid, s.procs[to].pid)
		}
		if err := s.m.ExecTrace(s.buf, ClassSwitch); err != nil {
			return fmt.Errorf("sim: context-switch trace failed: %w", err)
		}
	}
	return nil
}
