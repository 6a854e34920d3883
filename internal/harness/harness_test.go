package harness

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// tinyConfig is small enough for unit tests: ~100k references.
func tinyConfig() Config {
	cfg := QuickScaled()
	cfg.RefScale = 1.0 / 10000
	return cfg
}

func TestSRAMBytes(t *testing.T) {
	cfg := FullScale()
	// §4.5: 4MB cache + 128KB of tags at 128B blocks = 4.125MB.
	if got := cfg.SRAMBytes(128); got != 4<<20+128<<10 {
		t.Errorf("SRAMBytes(128) = %d, want 4.125MB", got)
	}
	// The bonus scales down with page size: at 4KB it is one page.
	if got := cfg.SRAMBytes(4096); got != 4<<20+4<<10 {
		t.Errorf("SRAMBytes(4096) = %d, want 4MB+4KB", got)
	}
	// Always a whole number of pages.
	for _, p := range BlockSizes {
		if cfg.SRAMBytes(p)%p != 0 {
			t.Errorf("SRAMBytes(%d) not page-aligned", p)
		}
	}
}

func TestReaders(t *testing.T) {
	cfg := tinyConfig()
	readers, err := cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 18 {
		t.Errorf("got %d readers, want 18", len(readers))
	}
	cfg.Processes = 3
	readers, err = cfg.Readers()
	if err != nil {
		t.Fatal(err)
	}
	if len(readers) != 3 {
		t.Errorf("got %d readers, want 3", len(readers))
	}
}

func TestRunAllSystems(t *testing.T) {
	cfg := tinyConfig()
	for _, sys := range []SystemKind{BaselineDM, TwoWayL2, RAMpage, RAMpageCS} {
		rep, err := Run(context.Background(), cfg, RunSpec{System: sys, IssueMHz: 1000, SizeBytes: 512, SwitchTrace: true})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if rep.BenchRefs == 0 || rep.Cycles == 0 {
			t.Errorf("%s: empty run %+v", sys, rep)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpageCS, IssueMHz: 2000, SizeBytes: 1024, SwitchTrace: true}
	a, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.PageFaults != b.PageFaults {
		t.Errorf("runs differ: %d/%d vs %d/%d cycles/faults", a.Cycles, a.PageFaults, b.Cycles, b.PageFaults)
	}
}

func TestSweepAndBest(t *testing.T) {
	cfg := tinyConfig()
	grid, err := Sweep(context.Background(), cfg, BaselineDM, []uint64{200, 4000}, []uint64{256, 1024}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(grid), len(grid[0]))
	}
	i, best := Best(grid[0])
	for _, r := range grid[0] {
		if r.Cycles < best.Cycles {
			t.Errorf("Best missed a faster cell")
		}
	}
	_ = i
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 13 {
		t.Fatalf("registry has %d experiments, want >= 13", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5"} {
		if _, ok := FindExperiment(id); !ok {
			t.Errorf("paper artifact %q missing from registry", id)
		}
	}
	if _, ok := FindExperiment("nonesuch"); ok {
		t.Error("FindExperiment(nonesuch) succeeded")
	}
	if len(SortedExperimentIDs()) != len(exps) {
		t.Error("SortedExperimentIDs length mismatch")
	}
}

func TestTable1Experiment(t *testing.T) {
	e, _ := FindExperiment("table1")
	out, err := e.Run(context.Background(), tinyConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4096") || !strings.Contains(out, "rambus") {
		t.Errorf("table1 output unexpected:\n%s", out)
	}
}

func TestTable2Experiment(t *testing.T) {
	e, _ := FindExperiment("table2")
	out, err := e.Run(context.Background(), tinyConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alvinn", "compress", "yacc", "TOTAL"} {
		if !strings.Contains(out, name) {
			t.Errorf("table2 output missing %q", name)
		}
	}
}

// tinyGolden holds every experiment's text output at tinyConfig over a
// two-rate, two-size grid, each section headed "=== <id> ===".
const tinyGolden = "testdata/experiments_tiny.golden"

// tinyExperimentsText renders every registered experiment at tinyConfig
// in the layout of tinyGolden.
func tinyExperimentsText(t *testing.T) string {
	t.Helper()
	cfg := tinyConfig()
	rates := []uint64{200, 4000}
	sizes := []uint64{256, 2048}
	var b strings.Builder
	for _, e := range Experiments() {
		out, err := e.Run(context.Background(), cfg, rates, sizes)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", e.ID)
		}
		fmt.Fprintf(&b, "=== %s ===\n%s\n", e.ID, out)
	}
	return b.String()
}

// TestAllSimulationExperimentsRunTiny pins every experiment's text
// rendering byte-for-byte, so moving a renderer or the cells behind it
// cannot change what it prints.
func TestAllSimulationExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile(tinyGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := tinyExperimentsText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "=== ") {
			section = w
		}
		if g != w {
			t.Fatalf("%s: text differs from %s at line %d:\n got: %q\nwant: %q", section, tinyGolden, i+1, g, w)
		}
	}
}

func TestShapeRAMpageVsBaseline(t *testing.T) {
	// The headline claims of Table 3 at a reduced but meaningful scale:
	// RAMpage must lose at 128B pages (TLB overhead) and its best
	// configuration must improve relative to the baseline's best as the
	// CPU-DRAM gap grows.
	if testing.Short() {
		t.Skip("shape validation run")
	}
	cfg := QuickScaled()
	sizes := []uint64{128, 1024, 4096}
	gains := map[uint64]float64{}
	for _, mhz := range []uint64{200, 4000} {
		base, err := Sweep(context.Background(), cfg, BaselineDM, []uint64{mhz}, sizes, false)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := Sweep(context.Background(), cfg, RAMpage, []uint64{mhz}, sizes, false)
		if err != nil {
			t.Fatal(err)
		}
		// RAMpage at 128B pages must lose to the baseline at 128B
		// blocks when the clock is slow enough that handler execution
		// dominates (at 4GHz the baseline's DRAM stalls can outweigh
		// the handler overhead even at this page size).
		if mhz == 200 && rp[0][0].Cycles < base[0][0].Cycles {
			t.Errorf("@%dMHz RAMpage wins at 128B pages; TLB overhead should prevent that", mhz)
		}
		_, bb := Best(base[0])
		_, rb := Best(rp[0])
		gains[mhz] = float64(bb.Cycles) / float64(rb.Cycles)
	}
	if gains[4000] <= gains[200] {
		t.Errorf("RAMpage advantage did not grow with the CPU-DRAM gap: %.3f @200MHz vs %.3f @4GHz",
			gains[200], gains[4000])
	}
	if gains[4000] < 1.0 {
		t.Errorf("RAMpage best loses to baseline best at 4GHz (ratio %.3f)", gains[4000])
	}
}

func TestSystemKindString(t *testing.T) {
	want := map[SystemKind]string{
		BaselineDM: "baseline-dm", TwoWayL2: "l2-2way",
		RAMpage: "rampage", RAMpageCS: "rampage-cs", SystemKind(99): "unknown",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", k, got, s)
		}
	}
}

// TestSweepWorkloadMatchesRun pins that a sweep replays the workload its
// own configuration names. The captured-workload cache outlives a
// sweep, so a single-program or first-N-programs sweep that follows a
// full-workload sweep must not be served the full workload's capture.
func TestSweepWorkloadMatchesRun(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig()
	spec := RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: 1024}
	if _, err := SweepSpec(ctx, cfg, spec, []uint64{1000}, []uint64{1024}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"profile sed", func(c *Config) { c.ProfileName = "sed" }},
		{"3 processes", func(c *Config) { c.Processes = 3 }},
	} {
		c := cfg
		tc.edit(&c)
		want, err := Run(ctx, c, spec)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := SweepSpec(ctx, c, spec, []uint64{1000}, []uint64{1024})
		if err != nil {
			t.Fatal(err)
		}
		if got := grid[0][0]; got.BenchRefs != want.BenchRefs || got.Cycles != want.Cycles {
			t.Errorf("%s: sweep ran %d bench refs in %d cycles, Run %d in %d",
				tc.name, got.BenchRefs, got.Cycles, want.BenchRefs, want.Cycles)
		}
	}
}
