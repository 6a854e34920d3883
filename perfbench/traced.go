package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rampage/internal/cache"
	"rampage/internal/checkpoint"
	"rampage/internal/harness"
	"rampage/internal/mem"
	"rampage/internal/policy"
	"rampage/internal/sim"
	"rampage/internal/trace"
)

// callTimes accumulates host time spent in each machine entry point
// the scheduler calls. One tracedMachine owns one; passes merge them.
type callTimes struct {
	wide, one, exec, advance                 time.Duration
	wideCalls, oneCalls, execCalls, advCalls uint64
	wideRefs, oneRefs, execRefs              uint64
	rowCalls                                 uint64
}

func (c *callTimes) merge(o callTimes) {
	c.wide += o.wide
	c.one += o.one
	c.exec += o.exec
	c.advance += o.advance
	c.wideCalls += o.wideCalls
	c.oneCalls += o.oneCalls
	c.execCalls += o.execCalls
	c.advCalls += o.advCalls
	c.wideRefs += o.wideRefs
	c.oneRefs += o.oneRefs
	c.execRefs += o.execRefs
	c.rowCalls += o.rowCalls
}

// batch records one batch call: windows of one reference are the
// scheduler's per-reference mode while a page is in flight.
func (c *callTimes) batch(window, consumed int, d time.Duration) {
	if window == 1 {
		c.one += d
		c.oneCalls++
		c.oneRefs += uint64(consumed)
		return
	}
	c.wide += d
	c.wideCalls++
	c.wideRefs += uint64(consumed)
}

// tracedMachine times every call the scheduler makes into a machine.
// It also implements sim.ColumnarMachine, so the scheduler stays on the
// columnar path exactly as it does for the bare machine.
type tracedMachine struct {
	sim.Machine
	col sim.ColumnarMachine
	t   callTimes
}

func (m *tracedMachine) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	start := time.Now()
	n, block, err := m.col.ExecBatchColumnar(pid, kinds, addrs)
	m.t.batch(len(kinds), n, time.Since(start))
	return n, block, err
}

func (m *tracedMachine) ExecBatch(refs []mem.Ref) (int, mem.Cycles, error) {
	start := time.Now()
	n, block, err := m.Machine.ExecBatch(refs)
	m.t.batch(len(refs), n, time.Since(start))
	m.t.rowCalls++
	return n, block, err
}

func (m *tracedMachine) ExecTrace(refs []mem.Ref, class sim.RefClass) error {
	start := time.Now()
	err := m.Machine.ExecTrace(refs, class)
	m.t.exec += time.Since(start)
	m.t.execCalls++
	m.t.execRefs += uint64(len(refs))
	return err
}

func (m *tracedMachine) AdvanceTo(t mem.Cycles) {
	start := time.Now()
	m.Machine.AdvanceTo(t)
	m.t.advance += time.Since(start)
	m.t.advCalls++
}

// newMachine builds the machine for a plain grid cell through the
// public sim constructors, the way harness.Run does. Specs with
// ablation knobs are refused: the benchmark's workloads use none, and
// the traced-run equivalence check would catch any drift.
func newMachine(cfg harness.Config, spec harness.RunSpec) (sim.Machine, error) {
	spec = spec.Normalized()
	plain := harness.RunSpec{System: spec.System, IssueMHz: spec.IssueMHz, SizeBytes: spec.SizeBytes,
		SwitchTrace: spec.SwitchTrace, Policy: spec.Policy}
	if spec != plain {
		return nil, fmt.Errorf("traced cell %+v: only plain grid cells are supported", spec)
	}
	params := sim.DefaultParams(spec.IssueMHz)
	params.Seed = cfg.Seed
	switch spec.System {
	case harness.BaselineDM, harness.TwoWayL2:
		assoc, repl := 1, cache.LRU
		if spec.System == harness.TwoWayL2 {
			assoc, repl = 2, cache.RandomRepl
		}
		return sim.NewBaseline(sim.BaselineConfig{
			Params:    params,
			L2Bytes:   cfg.L2Bytes,
			L2Block:   spec.SizeBytes,
			L2Assoc:   assoc,
			L2Policy:  repl,
			DRAMBytes: cfg.DRAMBytes,
		})
	case harness.RAMpage, harness.RAMpageCS:
		return sim.NewRAMpage(sim.RAMpageConfig{
			Params:       params,
			SRAMBytes:    cfg.SRAMBytes(spec.SizeBytes),
			PageBytes:    spec.SizeBytes,
			SwitchOnMiss: spec.System == harness.RAMpageCS,
			Policy:       spec.Policy,
		})
	}
	return nil, fmt.Errorf("traced cell: unknown system %v", spec.System)
}

func schedulerConfig(cfg harness.Config, spec harness.RunSpec) sim.SchedulerConfig {
	return sim.SchedulerConfig{
		Quantum:           cfg.Quantum,
		InsertSwitchTrace: spec.SwitchTrace,
		Seed:              cfg.Seed,
		MaxRefs:           cfg.MaxRefs,
	}
}

func release(m sim.Machine) {
	if r, ok := m.(interface{ Release() }); ok {
		r.Release()
	}
}

// cellTrace is one traced cell's measurements.
type cellTrace struct {
	report harness.ReportJSON
	err    error
	// build is machine plus scheduler construction; run is
	// Scheduler.Run.
	build, run time.Duration
	calls      callTimes
	// Checkpoint round trip of the final machine.
	capture, encode, decode, restore time.Duration
	ckptBytes                        int
	restoredSame                     bool
}

// passResult is one traced pass over a list of cells.
type passResult struct {
	cells []cellTrace
	// capture is the time to generate and capture the workload into
	// columnar buffers; captureRefs the references captured.
	capture     time.Duration
	captureRefs uint64
	// wall is the pass's simulation wall time: per group, the busiest
	// worker's build plus run time, leaving out the checkpoint round
	// trips.
	wall time.Duration
	// evictions is the number of SRAM victim selections made during the
	// pass, over every policy.
	evictions uint64
}

// captureWorkload generates the configuration's reference streams and
// captures them in columnar form, as the harness does before a sweep.
func captureWorkload(cfg harness.Config) ([]*trace.ColumnarBuffer, uint64, error) {
	readers, err := cfg.Readers()
	if err != nil {
		return nil, 0, err
	}
	var refs uint64
	bufs := make([]*trace.ColumnarBuffer, len(readers))
	for i, r := range readers {
		g, ok := r.(interface{ Remaining() uint64 })
		if !ok {
			return nil, 0, fmt.Errorf("stream %d has no known length", i)
		}
		want := g.Remaining()
		if bufs[i], err = trace.CaptureColumnar(r, want); err != nil {
			return nil, 0, err
		}
		refs += want
	}
	return bufs, refs, nil
}

// tracePass runs the groups of specs one after another, each through
// tracedMachines with o.workers cells in flight, as harness sweeps run
// one system's grid at a time. columnar replays one captured workload
// in every cell (the sweep path); otherwise each cell regenerates its
// streams (the path harness.Run and so the service's single runs take).
// The capture is timed either way. Cells come back in group order.
func tracePass(ctx context.Context, o options, cfg harness.Config, groups [][]harness.RunSpec, columnar bool) (passResult, error) {
	var p passResult
	start := time.Now()
	bufs, refs, err := captureWorkload(cfg)
	if err != nil {
		return p, fmt.Errorf("capture: %w", err)
	}
	p.capture, p.captureRefs = time.Since(start), refs
	newReaders := func() ([]trace.Reader, error) {
		if !columnar {
			return cfg.Readers()
		}
		rs := make([]trace.Reader, len(bufs))
		for i, b := range bufs {
			rs[i] = trace.NewColumnarReader(b)
		}
		return rs, nil
	}

	evBefore := totalEvictions()
	for _, specs := range groups {
		cells := make([]cellTrace, len(specs))
		next := make(chan int)
		busy := make([]time.Duration, o.workers)
		var wg sync.WaitGroup
		for w := 0; w < o.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					cells[i] = traceCell(ctx, cfg, specs[i], newReaders)
					busy[w] += cells[i].build + cells[i].run
				}
			}(w)
		}
		for i := range specs {
			next <- i
		}
		close(next)
		wg.Wait()
		p.cells = append(p.cells, cells...)
		var groupWall time.Duration
		for _, b := range busy {
			groupWall = max(groupWall, b)
		}
		p.wall += groupWall
	}
	p.evictions = totalEvictions() - evBefore
	return p, ctx.Err()
}

func totalEvictions() uint64 {
	var n uint64
	for _, v := range policy.EvictionsSnapshot() {
		n += v
	}
	return n
}

// traceCell simulates one cell under a tracedMachine, then round-trips
// its final state through a checkpoint into a fresh machine.
func traceCell(ctx context.Context, cfg harness.Config, spec harness.RunSpec, newReaders func() ([]trace.Reader, error)) cellTrace {
	var ct cellTrace
	start := time.Now()
	inner, err := newMachine(cfg, spec)
	if err != nil {
		ct.err = err
		return ct
	}
	defer release(inner)
	col, ok := inner.(sim.ColumnarMachine)
	if !ok {
		ct.err = fmt.Errorf("machine %T is not columnar", inner)
		return ct
	}
	readers, err := newReaders()
	if err != nil {
		ct.err = err
		return ct
	}
	tm := &tracedMachine{Machine: inner, col: col}
	sched, err := sim.NewScheduler(tm, readers, schedulerConfig(cfg, spec))
	if err != nil {
		ct.err = err
		return ct
	}
	ct.build = time.Since(start)
	start = time.Now()
	rep, err := sched.Run(ctx)
	ct.run = time.Since(start)
	ct.calls = tm.t
	if err != nil {
		ct.err = err
		return ct
	}
	ct.report = harness.NewReportJSON(rep)
	ct.err = checkpointRoundTrip(&ct, cfg, spec, inner, sched, newReaders)
	return ct
}

// checkpointRoundTrip captures the finished machine, encodes and
// decodes the checkpoint, restores it into a freshly built machine and
// requires the restored report to equal the original.
func checkpointRoundTrip(ct *cellTrace, cfg harness.Config, spec harness.RunSpec, m sim.Machine, s *sim.Scheduler,
	newReaders func() ([]trace.Reader, error)) error {
	start := time.Now()
	payload, err := sim.CaptureState(m, s)
	ct.capture = time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint capture: %w", err)
	}
	ck := &checkpoint.Checkpoint{
		Meta:    checkpoint.Meta{Prefix: harness.CheckpointPrefixKey(cfg, spec), Refs: s.Executed(), Final: true},
		System:  spec.System.String(),
		Payload: payload,
	}
	start = time.Now()
	enc := ck.Encode()
	ct.encode = time.Since(start)
	ct.ckptBytes = len(enc)
	start = time.Now()
	dec, err := checkpoint.Decode(enc)
	ct.decode = time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint decode: %w", err)
	}
	fresh, err := newMachine(cfg, spec)
	if err != nil {
		return err
	}
	defer release(fresh)
	readers, err := newReaders()
	if err != nil {
		return err
	}
	s2, err := sim.NewScheduler(fresh, readers, schedulerConfig(cfg, spec))
	if err != nil {
		return err
	}
	start = time.Now()
	err = sim.RestoreState(fresh, s2, dec.Payload)
	ct.restore = time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint restore: %w", err)
	}
	if !sameReport(harness.NewReportJSON(fresh.Report()), ct.report) {
		return fmt.Errorf("restored report differs from the captured run")
	}
	ct.restoredSame = true
	return nil
}

// checkTraced counts one operation per traced cell and fails each whose
// report differs from the untraced run of the same spec.
func checkTraced(res *result, specs []harness.RunSpec, p passResult, want []harness.ReportJSON) {
	for i, c := range p.cells {
		res.attempted++
		switch {
		case c.err != nil:
			res.fail("traced cell %s %d MHz %d B: %v", specs[i].System, specs[i].IssueMHz, specs[i].SizeBytes, c.err)
		case i >= len(want) || !sameReport(c.report, want[i]):
			res.fail("traced cell %s %d MHz %d B: report differs from the untraced run", specs[i].System, specs[i].IssueMHz, specs[i].SizeBytes)
		}
	}
}

// layerInputs are the per-layer measurements made outside the traced
// pass.
type layerInputs struct {
	untracedWall time.Duration
	writeJSON    time.Duration
	docs         [][]byte // the workload's documents, for the disk-store probe
	// Service counters; zero for workloads without a service.
	cacheHitShare, diskHitShare, ckptHitShare, simRuns, eventsPerJob float64
}

// addLayerMetrics appends every per-layer metric, in BENCHMARK.json
// order.
func addLayerMetrics(res *result, o options, p passResult, in layerInputs) error {
	var ct callTimes
	var self, cellMax, cellSum time.Duration
	var capture, encode, decode, restore time.Duration
	var ckptBytes, n int
	var benchRefs, osRefs, tlbMisses, faults, som, scans uint64
	for _, c := range p.cells {
		ct.merge(c.calls)
		self += c.run - c.calls.wide - c.calls.one - c.calls.exec - c.calls.advance
		cellMax = max(cellMax, c.build+c.run)
		cellSum += c.build + c.run
		capture += c.capture
		encode += c.encode
		decode += c.decode
		restore += c.restore
		ckptBytes += c.ckptBytes
		n++
		r := c.report
		benchRefs += r.BenchRefs
		osRefs += r.OSTLBRefs + r.OSFaultRefs + r.OSSwitchRefs
		tlbMisses += r.TLBMisses
		faults += r.PageFaults
		som += r.SwitchesOnMiss
		scans += r.ClockScans
	}
	put, get, err := diskProbe(o.scratch, in.docs)
	if err != nil {
		return err
	}
	perCellMS := func(d time.Duration) float64 { return ms(d) / float64(max(n, 1)) }
	nsPerRef := func(d time.Duration, refs uint64) float64 {
		if refs == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(refs)
	}
	appRefs := ct.wideRefs + ct.oneRefs

	res.add("trace.capture_s", p.capture.Seconds(), "s")
	res.add("trace.capture_mrefs_per_s", float64(p.captureRefs)/p.capture.Seconds()/1e6, "Mref/s")
	res.add("sim.sched_self_s", self.Seconds(), "s")
	res.add("sim.window1_calls", float64(ct.oneCalls), "count")
	res.add("sim.window1_ref_share", ratio(float64(ct.oneRefs), float64(appRefs)), "ratio")
	res.add("sim.advance_calls", float64(ct.advCalls), "count")
	res.add("sim.advance_s", ct.advance.Seconds(), "s")
	res.add("sim.row_batch_calls", float64(ct.rowCalls), "count")
	res.add("sim.batch_wide_s", ct.wide.Seconds(), "s")
	res.add("sim.batch_wide_ns_per_ref", nsPerRef(ct.wide, ct.wideRefs), "ns")
	res.add("sim.batch_one_s", ct.one.Seconds(), "s")
	res.add("sim.batch_one_ns_per_ref", nsPerRef(ct.one, ct.oneRefs), "ns")
	res.add("sim.exec_trace_s", ct.exec.Seconds(), "s")
	res.add("sim.exec_trace_ns_per_ref", nsPerRef(ct.exec, ct.execRefs), "ns")
	res.add("harness.cell_max_s", cellMax.Seconds(), "s")
	res.add("harness.cell_sum_s", cellSum.Seconds(), "s")
	res.add("harness.write_json_ms", ms(in.writeJSON), "ms")
	res.add("checkpoint.capture_ms", perCellMS(capture), "ms")
	res.add("checkpoint.encode_ms", perCellMS(encode), "ms")
	res.add("checkpoint.decode_ms", perCellMS(decode), "ms")
	res.add("checkpoint.restore_ms", perCellMS(restore), "ms")
	res.add("checkpoint.bytes", float64(ckptBytes)/float64(max(n, 1)), "B")
	res.add("jobs.cache_hit_share", in.cacheHitShare, "ratio")
	res.add("jobs.disk_hit_share", in.diskHitShare, "ratio")
	res.add("checkpoint.hit_share", in.ckptHitShare, "ratio")
	res.add("jobs.sim_runs", in.simRuns, "count")
	res.add("jobs.disk_put_ms", put, "ms")
	res.add("jobs.disk_get_ms", get, "ms")
	res.add("server.events_per_job", in.eventsPerJob, "count")
	res.add("stats.bench_refs", float64(benchRefs), "count")
	res.add("stats.os_refs", float64(osRefs), "count")
	res.add("stats.tlb_misses", float64(tlbMisses), "count")
	res.add("stats.page_faults", float64(faults), "count")
	res.add("stats.switches_on_miss", float64(som), "count")
	res.add("pagetable.clock_scans", float64(scans), "count")
	res.add("policy.evictions", float64(p.evictions), "count")
	overhead := p.wall - in.untracedWall
	res.add("tracing.overhead_s", overhead.Seconds(), "s")
	res.add("tracing.overhead_share", ratio(overhead.Seconds(), in.untracedWall.Seconds()), "ratio")
	res.addInfo("tracing.traced_wall_s", p.wall.Seconds(), "s")
	res.addInfo("tracing.untraced_wall_s", in.untracedWall.Seconds(), "s")
	res.addInfo("sim.app_refs_batched", float64(appRefs), "count")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedSweep is the traced run of a sweep workload: set-up, one
// untraced regeneration (the reference and the overhead baseline), then
// a traced pass over the same cells.
func tracedSweep(ctx context.Context, o options, docs []docSpec) (result, error) {
	var res result
	cfg, err := sweepConfig(o)
	if err != nil {
		return res, err
	}
	want, err := goldenDocs(o, docs)
	if err != nil {
		return res, err
	}
	if _, err := warmWorkload(ctx, cfg); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	g, err := regenerate(ctx, cfg, docs)
	if err != nil {
		return res, err
	}
	checkDocs(&res, docs, g, want)

	// One group per system grid, the unit harness.BuildExperimentDoc
	// sweeps at a time; document order (systems, rates, sizes) is
	// CellSpecs order.
	var specs []harness.RunSpec
	var groups [][]harness.RunSpec
	var untraced []harness.ReportJSON
	for i, d := range docs {
		sh, err := harness.ShapeOf(d.id, d.rates, nil)
		if err != nil {
			return res, err
		}
		cells := sh.CellSpecs()
		per := len(cells) / len(sh.Systems)
		for k := 0; k < len(cells); k += per {
			groups = append(groups, cells[k:k+per])
		}
		specs = append(specs, cells...)
		for _, grid := range g.docs[i].Systems {
			for _, row := range grid.Rows {
				untraced = append(untraced, row...)
			}
		}
	}
	p, err := tracePass(ctx, o, cfg, groups, true)
	if err != nil {
		return res, err
	}
	checkTraced(&res, specs, p, untraced)
	err = addLayerMetrics(&res, o, p, layerInputs{
		untracedWall: g.wall,
		writeJSON:    g.encode,
		docs:         g.bodies,
	})
	return res, err
}
