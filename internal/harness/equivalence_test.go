package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rampage/internal/oracle"
	"rampage/internal/policy"
	"rampage/internal/stats"
)

// equivSpecs covers every SystemKind plus the scheduler features that
// interact with batching: switch traces, switch-on-miss blocking,
// lightweight threads and the adaptive epoch controller. The further
// switch-on-miss specs vary what a page in flight looks like to a wide
// window: prefetches (pending pages keep the per-reference path),
// pipelined and banked channel timing, a 2-way L1 (no fused loop, so
// the stop at a page's arrival holds on the slow path) and a non-clock
// replacement policy.
var equivSpecs = []RunSpec{
	{System: BaselineDM, IssueMHz: 1000, SizeBytes: 128},
	{System: TwoWayL2, IssueMHz: 4000, SizeBytes: 1024, SwitchTrace: true},
	{System: RAMpage, IssueMHz: 1000, SizeBytes: 1024},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 128, SwitchTrace: true, LightweightThreads: true},
	{System: RAMpage, IssueMHz: 4000, SizeBytes: 512, AdaptivePages: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true, PrefetchNext: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 1024, SwitchTrace: true, PipelinedDRAM: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 1024, SwitchTrace: true, BankedDRAM: true},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true, L1Assoc: 2},
	{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true, Policy: policy.FIFO},
}

// runNarrow is Run with every workload stream read through
// oracle.NarrowReader(·, k), so no scheduler window is wider than k
// references: k = 1 is the paper's reference-at-a-time schedule, and
// k = 0 leaves the streams as Run reads them.
func runNarrow(ctx context.Context, cfg Config, spec RunSpec, k int) (*stats.Report, error) {
	if k == 0 {
		return Run(ctx, cfg, spec)
	}
	readers, err := cfg.Readers()
	if err != nil {
		return nil, err
	}
	for i, r := range readers {
		readers[i] = oracle.NarrowReader(r, k)
	}
	return runWithReaders(ctx, cfg, spec, readers)
}

// requireNarrowEquivalence runs one spec in the scheduler's default
// wide windows and in windows of at most k references, and fails
// unless the reports are bit-identical.
func requireNarrowEquivalence(t *testing.T, cfg Config, spec RunSpec, k int) {
	t.Helper()
	wide, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatalf("wide run: %v", err)
	}
	narrow, err := runNarrow(context.Background(), cfg, spec, k)
	if err != nil {
		t.Fatalf("%d-wide run: %v", k, err)
	}
	if !reflect.DeepEqual(wide, narrow) {
		t.Errorf("reports diverge:\nwide:      %+v\n%d-wide: %+v", wide, k, narrow)
	}
}

// TestBatchedPathEquivalence asserts wide windows produce bit-identical
// reports to one-reference windows for all four systems (plus the
// extensions in equivSpecs).
func TestBatchedPathEquivalence(t *testing.T) {
	cfg := tinyConfig()
	for _, spec := range equivSpecs {
		spec := spec
		name := spec.System.String()
		if spec.LightweightThreads {
			name += "-threads"
		}
		if spec.AdaptivePages {
			name += "-adaptive"
		}
		for _, feature := range []struct {
			on     bool
			suffix string
		}{
			{spec.PrefetchNext, "-prefetch"},
			{spec.PipelinedDRAM, "-pipelined"},
			{spec.BankedDRAM, "-banked"},
			{spec.L1Assoc == 2, "-l1-2way"},
			{spec.Policy != "", "+" + spec.Policy},
		} {
			if feature.on {
				name += feature.suffix
			}
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			requireNarrowEquivalence(t, cfg, spec, 1)
		})
	}
}

// TestBatchedPathEquivalenceBatchSizes sweeps the window cap —
// including a degenerate single-reference window and a window spanning
// whole quanta — on the system with the most scheduler interaction.
func TestBatchedPathEquivalenceBatchSizes(t *testing.T) {
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true}
	for _, k := range []int{1, 7, 64, int(cfg.Quantum)} {
		k := k
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			t.Parallel()
			requireNarrowEquivalence(t, cfg, spec, k)
		})
	}
}

// TestBatchedPathEquivalenceMaxRefs checks that the MaxRefs cutoff
// lands on the same reference in wide and narrow windows, including
// when it falls mid-window.
func TestBatchedPathEquivalenceMaxRefs(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxRefs = 12_345
	requireNarrowEquivalence(t, cfg, RunSpec{System: RAMpageCS, IssueMHz: 4000, SizeBytes: 512, SwitchTrace: true}, 64)
}

// TestSweepPreloadEquivalence pins Sweep's materialized-workload
// replay against direct Run calls (which regenerate their streams):
// every grid cell must be bit-identical.
func TestSweepPreloadEquivalence(t *testing.T) {
	cfg := tinyConfig()
	rates := []uint64{1000, 4000}
	sizes := []uint64{128, 1024}
	grid, err := Sweep(context.Background(), cfg, RAMpageCS, rates, sizes, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		for j, size := range sizes {
			direct, err := Run(context.Background(), cfg, RunSpec{System: RAMpageCS, IssueMHz: rate, SizeBytes: size, SwitchTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(grid[i][j], direct) {
				t.Errorf("cell %dMHz/%dB diverges from direct run:\nsweep: %+v\ndirect: %+v", rate, size, grid[i][j], direct)
			}
		}
	}
}

// FuzzBatchEquivalence fuzzes (seed, window cap, issue rate, page
// size) through the switch-on-miss system, asserting bit-identical
// reports between wide windows and windows of at most k references.
// The seed corpus pins the caps {1, 7, 64, quantum}, so `go test`
// always replays them even when no fuzz engine is attached.
func FuzzBatchEquivalence(f *testing.F) {
	quantum := QuickScaled().Quantum
	f.Add(uint64(42), uint64(1), uint64(4000), uint64(512))
	f.Add(uint64(42), uint64(7), uint64(4000), uint64(512))
	f.Add(uint64(42), uint64(64), uint64(1000), uint64(128))
	f.Add(uint64(42), quantum, uint64(4000), uint64(1024))
	f.Add(uint64(7), uint64(13), uint64(2000), uint64(256))
	f.Fuzz(func(t *testing.T, seed, k, rateMHz, pageBytes uint64) {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.Processes = 4
		cfg.MaxRefs = 30_000
		rates := []uint64{200, 1000, 2000, 4000}
		sizes := []uint64{128, 256, 512, 1024, 2048, 4096}
		spec := RunSpec{
			System:      RAMpageCS,
			IssueMHz:    rates[rateMHz%uint64(len(rates))],
			SizeBytes:   sizes[pageBytes%uint64(len(sizes))],
			SwitchTrace: true,
		}
		requireNarrowEquivalence(t, cfg, spec, int(1+k%(2*quantum))) // clamp to a sane window
	})
}
