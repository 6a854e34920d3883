package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/metrics"
	"rampage/internal/sim"
	"rampage/internal/store"
)

// ckptTestConfig is a fast configuration with enough references to
// cross several quanta, page faults and TLB refills per system.
func ckptTestConfig() Config {
	cfg := QuickScaled()
	cfg.Processes = 4
	return cfg
}

// ckptTestSpecs covers every machine family: conventional direct-mapped
// and associative L2, RAMpage stall-on-miss, RAMpage switch-on-miss
// (with the switch trace, so the scheduler kernel RNG advances), and
// the adaptive controller.
func ckptTestSpecs() []RunSpec {
	return []RunSpec{
		{System: BaselineDM, IssueMHz: 1000, SizeBytes: 512},
		{System: TwoWayL2, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true},
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 512},
		{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true},
		{System: RAMpage, IssueMHz: 1000, SizeBytes: 512, AdaptivePages: true},
	}
}

func specName(spec RunSpec) string {
	name := spec.System.String()
	if spec.AdaptivePages {
		name += "-adaptive"
	}
	return name
}

// TestCheckpointResumeMatchesScratch is the tentpole equivalence: a run
// warm-started from a mid-run checkpoint must produce a report
// bit-identical to the same run from scratch.
func TestCheckpointResumeMatchesScratch(t *testing.T) {
	for _, spec := range ckptTestSpecs() {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			t.Parallel()
			cfg := ckptTestConfig()
			cfg.MaxRefs = 240_000
			want, err := Run(context.Background(), cfg, spec)
			if err != nil {
				t.Fatalf("scratch run: %v", err)
			}

			store := checkpoint.NewStore(0, nil, nil)
			warm := cfg
			warm.Checkpoints = store
			warm.MaxRefs = 120_000
			if _, err := Run(context.Background(), warm, spec); err != nil {
				t.Fatalf("prefix run: %v", err)
			}
			if store.Len() != 1 {
				t.Fatalf("store holds %d checkpoints, want 1", store.Len())
			}
			warm.MaxRefs = 240_000
			got, err := Run(context.Background(), warm, spec)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if *got != *want {
				t.Errorf("resumed report differs from scratch:\n got: %+v\nwant: %+v", *got, *want)
			}
		})
	}
}

// TestCheckpointResumeFromReopenedStore pins the restart path end to
// end: a checkpoint written through to a disk tier by one store is
// restored by a fresh store over the same directory, and the resumed
// run is bit-identical to the cold run.
func TestCheckpointResumeFromReopenedStore(t *testing.T) {
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	dir := t.TempDir()
	open := func(svc *metrics.ServiceStats) *checkpoint.Store {
		disk, err := store.OpenDisk(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return checkpoint.NewStore(0, disk, svc)
	}
	warm := cfg
	warm.Checkpoints = open(nil)
	warm.MaxRefs = 120_000
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	svc := &metrics.ServiceStats{}
	warm.Checkpoints = open(svc)
	warm.MaxRefs = 240_000
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if h := svc.Get(metrics.SvcCkptHit); h != 1 {
		t.Fatalf("checkpoint hits after reopen = %d, want 1 (the run started cold)", h)
	}
	if *got != *want {
		t.Errorf("report resumed from a reopened store differs from scratch:\n got: %+v\nwant: %+v", *got, *want)
	}
}

// TestCheckpointResumePerRefAndVerify pins the restore path in
// one-reference windows and under the oracle invariant checker: both
// the window width and -verify must hold on warm starts.
func TestCheckpointResumePerRefAndVerify(t *testing.T) {
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	for _, mode := range []struct {
		name   string
		k      int
		verify bool
	}{
		{"per-ref", 1, false},
		{"verify", 0, true},
		{"per-ref-verify", 1, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			warm := ckptTestConfig()
			warm.Checkpoints = checkpoint.NewStore(0, nil, nil)
			warm.Verify = mode.verify
			warm.MaxRefs = 120_000
			if _, err := runNarrow(context.Background(), warm, spec, mode.k); err != nil {
				t.Fatalf("prefix run: %v", err)
			}
			warm.MaxRefs = 240_000
			got, err := runNarrow(context.Background(), warm, spec, mode.k)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if *got != *want {
				t.Errorf("resumed %s report differs from scratch:\n got: %+v\nwant: %+v", mode.name, *got, *want)
			}
		})
	}
}

// TestCheckpointCompleteSkipsRun pins the warm full-restore path: after
// a run stores its final state, re-running the identical request is
// answered entirely from the checkpoint, and by the dominance rules a
// final checkpoint also answers any larger budget.
func TestCheckpointCompleteSkipsRun(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 150_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}

	svc := &metrics.ServiceStats{}
	store := checkpoint.NewStore(0, nil, svc)
	warm := cfg
	warm.Checkpoints = store
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if got := svc.Get(metrics.SvcCkptMiss); got != 1 {
		t.Errorf("cold run counted %d misses, want 1", got)
	}
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if *got != *want {
		t.Errorf("warm report differs from scratch:\n got: %+v\nwant: %+v", *got, *want)
	}
	if hits := svc.Get(metrics.SvcCkptHit); hits != 1 {
		t.Errorf("warm run counted %d hits, want 1", hits)
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d checkpoints after a complete restore, want 1", store.Len())
	}
}

// TestCheckpointFinalAtBudgetNotReused pins the dominance edge: a
// budget-capped run that happens to drain the workload exactly at its
// budget is final, and a later run with that same budget must NOT be
// answered by it — wait, it must: a final checkpoint below the budget
// is complete. The edge that must not reuse is a final checkpoint AT
// the budget, which cannot arise from a budgeted run (a budgeted run
// stopping at its budget is non-final). This test instead pins that an
// uncapped final checkpoint answers larger budgets but is never
// resumed past end-of-stream.
func TestCheckpointFinalAnswersLargerBudget(t *testing.T) {
	spec := RunSpec{System: BaselineDM, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.ProfileName = "compress" // one short program: drains quickly
	cfg.Processes = 0

	full, err := Run(context.Background(), cfg, spec) // uncapped: drains the stream
	if err != nil {
		t.Fatalf("uncapped run: %v", err)
	}

	store := checkpoint.NewStore(0, nil, nil)
	warm := cfg
	warm.Checkpoints = store
	if _, err := Run(context.Background(), warm, spec); err != nil {
		t.Fatalf("cold uncapped run: %v", err)
	}
	// A budget far beyond the stream length: the from-scratch run would
	// drain the stream before the budget, so the final checkpoint is a
	// complete answer.
	warm.MaxRefs = 1 << 40
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("warm over-budget run: %v", err)
	}
	if *got != *full {
		t.Errorf("over-budget warm report differs from uncapped scratch:\n got: %+v\nwant: %+v", *got, *full)
	}
}

// TestSweepWithCheckpoints pins the sweep path end to end: a cold sweep
// populates the store, a warm sweep restores every cell, and both match
// a sweep with no store attached.
func TestSweepWithCheckpoints(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.MaxRefs = 100_000
	rates := []uint64{1000}
	sizes := []uint64{256, 1024}

	want, err := Sweep(context.Background(), cfg, RAMpage, rates, sizes, false)
	if err != nil {
		t.Fatalf("plain sweep: %v", err)
	}

	svc := &metrics.ServiceStats{}
	cfg.Checkpoints = checkpoint.NewStore(0, nil, svc)
	cold, err := Sweep(context.Background(), cfg, RAMpage, rates, sizes, false)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	plan := PlanSweep(cfg, RAMpage, rates, sizes, false)
	if plan.Warm != len(rates)*len(sizes) || plan.Complete != len(rates)*len(sizes) {
		t.Errorf("plan after cold sweep: warm=%d complete=%d, want both %d", plan.Warm, plan.Complete, len(rates)*len(sizes))
	}
	warm, err := Sweep(context.Background(), cfg, RAMpage, rates, sizes, false)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	for i := range rates {
		for j := range sizes {
			if *cold[i][j] != *want[i][j] {
				t.Errorf("cold cell [%d][%d] differs from plain sweep", i, j)
			}
			if *warm[i][j] != *want[i][j] {
				t.Errorf("warm cell [%d][%d] differs from plain sweep", i, j)
			}
		}
	}
	if hits := svc.Get(metrics.SvcCkptHit); hits != uint64(len(rates)*len(sizes)) {
		t.Errorf("warm sweep counted %d checkpoint hits, want %d", hits, len(rates)*len(sizes))
	}
}

// TestPlanSweepOrdersWarmFirst pins the planner's ordering contract.
func TestPlanSweepOrdersWarmFirst(t *testing.T) {
	cfg := ckptTestConfig()
	cfg.MaxRefs = 60_000
	cfg.Checkpoints = checkpoint.NewStore(0, nil, nil)
	rates := []uint64{1000}
	sizes := []uint64{256, 512, 1024}

	// Warm exactly one cell.
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	if _, err := Run(context.Background(), cfg, spec); err != nil {
		t.Fatalf("warming run: %v", err)
	}
	plan := PlanSweep(cfg, RAMpage, rates, sizes, false)
	if plan.Warm != 1 || plan.Complete != 1 {
		t.Fatalf("plan warm=%d complete=%d, want 1/1", plan.Warm, plan.Complete)
	}
	if got := plan.Cells[0].Spec.SizeBytes; got != 512 {
		t.Errorf("warmest cell has size %d, want the checkpointed 512", got)
	}
	if !plan.Cells[0].Complete {
		t.Errorf("warmest cell not marked complete")
	}
	for _, pc := range plan.Cells[1:] {
		if pc.Complete || pc.Refs != 0 {
			t.Errorf("cold cell %d marked warm", pc.Spec.SizeBytes)
		}
	}
}

// TestCheckpointPrefixKeyExcludesBudget pins the prefix identity: runs
// differing only in MaxRefs share a trajectory; any result-affecting
// spec or config change separates them; custom profile sets disable
// checkpointing entirely.
func TestCheckpointPrefixKeyExcludesBudget(t *testing.T) {
	cfg := ckptTestConfig()
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	base := CheckpointPrefixKey(cfg, spec)
	if base == "" {
		t.Fatal("empty prefix for a checkpointable config")
	}
	budget := cfg
	budget.MaxRefs = 999
	if CheckpointPrefixKey(budget, spec) != base {
		t.Error("MaxRefs changed the prefix; extensions could never share warm-up")
	}
	knobs := cfg
	knobs.Verify = true
	knobs.Workers = 3
	if CheckpointPrefixKey(knobs, spec) != base {
		t.Error("execution knobs changed the prefix")
	}
	seed := cfg
	seed.Seed++
	if CheckpointPrefixKey(seed, spec) == base {
		t.Error("seed change kept the prefix")
	}
	spec2 := spec
	spec2.SizeBytes = 1024
	if CheckpointPrefixKey(cfg, spec2) == base {
		t.Error("spec change kept the prefix")
	}
	custom := cfg
	custom.profiles = PhasedTable2()
	if CheckpointPrefixKey(custom, spec) != "" {
		t.Error("custom profile set did not disable checkpointing")
	}
}

// TestGoldenExperimentsCheckpointEquivalence runs every experiment with
// a committed golden three ways — no store, a cold store (captures) and
// the now-warm store (restores every cell) — and demands byte-identical
// JSON documents. This is the checkpoint analogue of the columnar
// equivalence gate: warm state must be invisible in results.
func TestGoldenExperimentsCheckpointEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments three times")
	}
	goldenIDs := []string{"table3", "table4", "table5", "fig2", "fig3", "fig4"}
	rates := []uint64{200, 4000}
	sizes := []uint64{256, 2048}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			plain := tinyConfig()
			want, err := BuildExperimentDoc(context.Background(), plain, id, rates, sizes)
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			warm := tinyConfig()
			warm.Checkpoints = checkpoint.NewStore(0, nil, nil)
			for _, phase := range []string{"cold", "warm"} {
				doc, err := BuildExperimentDoc(context.Background(), warm, id, rates, sizes)
				if err != nil {
					t.Fatalf("%s run: %v", phase, err)
				}
				got, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantJSON) {
					t.Errorf("%s store document diverges from plain document\n got: %s\nwant: %s", phase, got, wantJSON)
				}
			}
		})
	}
}

// TestCheckpointBytesExecutionPathInvariant pins a subtle codec
// property: the captured state must not depend on HOW the prefix was
// executed. Wide windows, one-reference windows and a run with an
// observer attached must all store byte-identical checkpoints,
// or a warm start would silently tie results to the producer's
// execution path. The second case stops its budget while a page
// transfer is in flight: the payload encodes the in-flight page locks,
// so a wide window that unpinned a landed page at a different
// reference than the one-reference run would show up in the bytes.
func TestCheckpointBytesExecutionPathInvariant(t *testing.T) {
	spec := RunSpec{System: RAMpageCS, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true}
	base := ckptTestConfig()
	base.MaxRefs = 120_000
	requireCheckpointBytesInvariant(t, base, spec)

	spec = RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 1024, SwitchTrace: true}
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("no budget between 150,000 and 199,000 references stops with a page in flight")
		}
		base.MaxRefs = 150_000 + uint64(tries)*1_000
		if lockedFrames(t, base, spec, captureWide(t, base, spec)) > 0 {
			break
		}
	}
	requireCheckpointBytesInvariant(t, base, spec)
}

// captureWide runs spec under cfg in wide windows and returns the
// checkpoint payload it stored.
func captureWide(t *testing.T, cfg Config, spec RunSpec) []byte {
	t.Helper()
	cfg.Checkpoints = checkpoint.NewStore(0, nil, nil)
	if _, err := Run(context.Background(), cfg, spec); err != nil {
		t.Fatal(err)
	}
	c, _, ok := cfg.Checkpoints.Nearest(CheckpointPrefixKey(cfg, spec), 0)
	if !ok {
		t.Fatal("run stored no checkpoint")
	}
	return c.Payload
}

// lockedFrames restores a switch-on-miss payload into a fresh machine
// and counts the user frames it holds locked for in-flight transfers.
func lockedFrames(t *testing.T, cfg Config, spec RunSpec, payload []byte) int {
	t.Helper()
	params := sim.DefaultParams(spec.IssueMHz)
	params.Seed = cfg.Seed
	m, err := sim.NewRAMpage(sim.RAMpageConfig{
		Params:       params,
		SRAMBytes:    cfg.SRAMBytes(spec.SizeBytes),
		PageBytes:    spec.SizeBytes,
		SwitchOnMiss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	readers, err := cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewScheduler(m, readers, sim.SchedulerConfig{
		Quantum: cfg.Quantum, InsertSwitchTrace: spec.SwitchTrace, Seed: cfg.Seed, MaxRefs: cfg.MaxRefs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RestoreState(m, s, payload); err != nil {
		t.Fatal(err)
	}
	locked := 0
	for f := m.Memory().OSPages(); f < m.Memory().Frames(); f++ {
		if _, _, valid, _, pinned := m.Memory().FrameInfo(f); valid && pinned {
			locked++
		}
	}
	return locked
}

// requireCheckpointBytesInvariant captures spec's checkpoint at
// base.MaxRefs in wide windows, one-reference windows and with an
// observer attached, and requires the payloads to be byte-identical.
func requireCheckpointBytesInvariant(t *testing.T, base Config, spec RunSpec) {
	t.Helper()
	prefix := CheckpointPrefixKey(base, spec)
	capture := func(name string, k int, mutate func(*Config)) []byte {
		t.Helper()
		cfg := base
		cfg.Checkpoints = checkpoint.NewStore(0, nil, nil)
		mutate(&cfg)
		if _, err := runNarrow(context.Background(), cfg, spec, k); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		c, _, ok := cfg.Checkpoints.Nearest(prefix, 0)
		if !ok {
			t.Fatalf("%s run stored no checkpoint", name)
		}
		return c.Payload
	}

	batched := capture("batched", 0, func(c *Config) {})
	perRef := capture("per-ref", 1, func(c *Config) {})
	observed := capture("observed", 0, func(c *Config) { c.Observer = metrics.NewCollector(0) })
	if !bytes.Equal(batched, perRef) {
		t.Errorf("%+v at %d refs: per-reference execution produced different checkpoint bytes", spec, base.MaxRefs)
	}
	if !bytes.Equal(batched, observed) {
		t.Errorf("%+v at %d refs: attaching an observer changed the checkpoint bytes", spec, base.MaxRefs)
	}
}

// TestSeededCheckpointCorruptionDetected proves the differential layer
// catches a corrupted checkpoint the codec cannot: a single bit flipped
// in a serialized counter leaves the stream structurally valid (every
// marker intact, every length right), restores without error, and then
// surfaces as a report divergence against the from-scratch run — the
// same way the reference-oracle differential engine pins simulator
// bugs.
func TestSeededCheckpointCorruptionDetected(t *testing.T) {
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 512}
	cfg := ckptTestConfig()
	cfg.MaxRefs = 240_000
	want, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}

	store := checkpoint.NewStore(0, nil, nil)
	prefixCfg := cfg
	prefixCfg.Checkpoints = store
	prefixCfg.MaxRefs = 120_000
	prefixRep, err := Run(context.Background(), prefixCfg, spec)
	if err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	prefix := CheckpointPrefixKey(cfg, spec)
	ck, _, ok := store.Nearest(prefix, cfg.MaxRefs)
	if !ok {
		t.Fatal("prefix checkpoint not stored")
	}

	// Flip the low bit of the serialized cycle counter. The payload
	// embeds the prefix report verbatim, so the capture-time cycle count
	// locates the field without knowing the full layout.
	var needle [8]byte
	binary.LittleEndian.PutUint64(needle[:], uint64(prefixRep.Cycles))
	at := bytes.Index(ck.Payload, needle[:])
	if at < 0 {
		t.Fatal("capture-time cycle count not found in payload; codec layout changed?")
	}
	corrupted := &checkpoint.Checkpoint{Meta: ck.Meta, System: ck.System}
	corrupted.Payload = append([]byte{}, ck.Payload...)
	corrupted.Payload[at] ^= 1

	evil := checkpoint.NewStore(0, nil, nil)
	evil.Put(corrupted)
	warm := cfg
	warm.Checkpoints = evil
	got, err := Run(context.Background(), warm, spec)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if *got == *want {
		t.Fatal("corrupted checkpoint produced the scratch report; the fault was silently absorbed")
	}
	if got.Cycles == want.Cycles {
		t.Errorf("cycle counter corruption did not surface in the cycle count: got %d", got.Cycles)
	}
	// An uncorrupted copy of the same checkpoint still resumes cleanly —
	// the divergence above is the corruption, not the restore path.
	clean := checkpoint.NewStore(0, nil, nil)
	clean.Put(ck)
	warm.Checkpoints = clean
	if got, err = Run(context.Background(), warm, spec); err != nil || *got != *want {
		t.Errorf("clean resume failed (err %v) or diverged", err)
	}
}
