package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/policy"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// Experiment is one reproducible paper artifact: a table, a figure or
// an ablation. Run returns the formatted result text.
type Experiment struct {
	// ID is the registry key ("table3", "fig4", "bigtlb", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment under cfg with the given issue-rate
	// and size sweeps (empty slices select the paper defaults).
	Run func(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error)

	// grid is the sweep of an experiment with a JSON form: its systems
	// and, for the figures, the pinned issue rate (RatesMHz). ShapeOf
	// resolves it under a requested grid. nil for text-only
	// experiments.
	grid *ExperimentShape
}

// plan is a simulated experiment under one requested grid: the cells
// it needs and the renderer that turns their reports, aligned with
// cells, into the result text.
type plan struct {
	cells  []cell
	render func(reports []*stats.Report) string
}

// simulated registers an experiment that declares its cells under the
// requested grid (the paper defaults already applied to empty slices);
// Run simulates them with runCells and renders their reports.
func simulated(id, title string, declare func(rates, sizes []uint64) plan) Experiment {
	run := func(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
		p := declare(defRates(rates), defSizes(sizes))
		reports, err := runCells(ctx, cfg, p.cells)
		if err != nil {
			return "", err
		}
		return p.render(reports), nil
	}
	return Experiment{ID: id, Title: title, Run: run}
}

// gridded registers an experiment with a JSON form: its cells are its
// document's CellSpecs, and its text renders from the same reports,
// split into one [rate][size] grid per system.
func gridded(id, title string, grid ExperimentShape, render func(sh ExperimentShape, grids [][][]*stats.Report) string) Experiment {
	e := simulated(id, title, func(rates, sizes []uint64) plan {
		sh := grid.resolve(id, title, rates, sizes)
		return plan{specCells(sh.CellSpecs()), func(reports []*stats.Report) string {
			return render(sh, sh.grids(reports))
		}}
	})
	e.grid = &grid
	return e
}

// Experiments returns the registry, in paper order.
func Experiments() []Experiment {
	paired := []SystemKind{BaselineDM, RAMpage}
	noTrace := []bool{false, false}
	return []Experiment{
		{ID: "table1", Title: "Table 1: % bandwidth efficiency, Direct Rambus vs disk", Run: runTable1},
		{ID: "table2", Title: "Table 2: workload inventory (synthetic profiles)", Run: runTable2},
		gridded("table3", "Table 3: run times, baseline direct-mapped L2 vs RAMpage",
			ExperimentShape{Systems: paired, SwitchTrace: noTrace}, renderTable3),
		gridded("table4", "Table 4: RAMpage with context switches on misses",
			ExperimentShape{Systems: []SystemKind{RAMpageCS, RAMpage}, SwitchTrace: []bool{true, false}}, renderTable4),
		gridded("table5", "Table 5: 2-way associative L2 with context switches",
			ExperimentShape{Systems: []SystemKind{TwoWayL2}, SwitchTrace: []bool{true}}, renderTable5),
		gridded("fig2", "Figure 2: fraction of time per level, 200MHz",
			ExperimentShape{RatesMHz: []uint64{200}, Systems: paired, SwitchTrace: noTrace}, renderFigLevels),
		gridded("fig3", "Figure 3: fraction of time per level, 4GHz",
			ExperimentShape{RatesMHz: []uint64{4000}, Systems: paired, SwitchTrace: noTrace}, renderFigLevels),
		gridded("fig4", "Figure 4: TLB miss + page fault handling overheads",
			ExperimentShape{RatesMHz: []uint64{1000}, Systems: paired, SwitchTrace: noTrace}, renderFig4),
		simulated("fig5", "Figure 5: RAMpage-CS vs 2-way L2 relative speed", fig5),
		simulated("bigtlb", "Ablation X1 (§6.3): 1K-entry 2-way TLB", bigTLB),
		simulated("pipelined", "Ablation X2 (§6.3): pipelined Direct Rambus", pipelined),
		simulated("victim", "Ablation X3 (§3.2): victim cache on the baseline", victim),
		simulated("biglone", "Ablation (§6.3): aggressive 64KB 8-way L1", bigL1),
		// The paper's future-work directions (extensions.go).
		simulated("sdram", "Extension (§3.3): SDRAM in place of Direct Rambus", sdram),
		simulated("threads", "Extension (§3.2): lightweight thread switch on miss", threads),
		simulated("adaptive", "Extension (§6.2): dynamic SRAM page sizing", adaptive),
		simulated("perbench", "Extension (§6.3): per-program optimal page size", perBench),
		simulated("prefetch", "Extension (§3.2): sequential next-page prefetch", prefetch),
		simulated("channels", "Extension (§3.3): multiple Rambus channels", channels),
		simulated("banked", "Extension (§6.3): banked open-row RDRAM timing", banked),
		// The policy lab: the RAMpage machine at the paper's 1 GHz
		// midpoint under every replacement policy, swept across the
		// page sizes.
		{ID: "policies", Title: "Policy lab: SRAM page replacement (clock/fifo/random/awrp/bandwidth)", Run: runPolicies,
			grid: &ExperimentShape{
				RatesMHz:    []uint64{1000},
				Systems:     []SystemKind{RAMpage, RAMpage, RAMpage, RAMpage, RAMpage},
				SwitchTrace: []bool{false, false, false, false, false},
				Policies:    []string{policy.Clock, policy.FIFO, policy.Random, policy.AWRP, policy.Bandwidth},
			}},
		simulated("verdict", "Self-check: every paper claim, PASS/FAIL", paperClaims),
		simulated("phased", "Extension (§6.2): adaptive paging on a phased workload", phased),
		{ID: "warmup", Title: "§4.2 warm-up analysis: references to fill the SRAM", Run: runWarmup},
	}
}

// FindExperiment looks up an experiment by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func defRates(rates []uint64) []uint64 {
	if len(rates) == 0 {
		return IssueRatesMHz
	}
	return rates
}

func defSizes(sizes []uint64) []uint64 {
	if len(sizes) == 0 {
		return BlockSizes
	}
	return sizes
}

// atTopRate declares the ablation layout: at the fastest requested
// issue rate, one row of cells per size with one cell per variant (a
// spec template the rate and size are filled into). render receives
// the reports indexed [size][variant].
func atTopRate(rates, sizes []uint64, variants []RunSpec, render func(rows [][]*stats.Report) string) plan {
	mhz := rates[len(rates)-1]
	cells := make([]cell, 0, len(sizes)*len(variants))
	for _, size := range sizes {
		for _, v := range variants {
			v.IssueMHz, v.SizeBytes = mhz, size
			cells = append(cells, cell{spec: v})
		}
	}
	return plan{cells, func(reports []*stats.Report) string {
		return render(chunk(reports, len(variants)))
	}}
}

// column is one variant of a run-time table: its header and the spec
// template its cells run.
type column struct {
	name string
	spec RunSpec
}

// secondsTable declares the common ablation table: atTopRate's cells,
// rendered under title as one line per size with each column's run
// time in seconds, width characters wide.
func secondsTable(rates, sizes []uint64, title, first string, width int, cols ...column) plan {
	variants := make([]RunSpec, len(cols))
	for k, c := range cols {
		variants[k] = c.spec
	}
	return atTopRate(rates, sizes, variants, func(rows [][]*stats.Report) string {
		var b strings.Builder
		b.WriteString(title)
		fmt.Fprintf(&b, "%-10s", first)
		for _, c := range cols {
			fmt.Fprintf(&b, " %*s", width, c.name)
		}
		b.WriteString("\n")
		for j, size := range sizes {
			fmt.Fprintf(&b, "%-10s", mem.FormatSize(size))
			for _, r := range rows[j] {
				fmt.Fprintf(&b, " %*.4f", width, r.Seconds())
			}
			b.WriteString("\n")
		}
		return b.String()
	})
}

// --- Table 1 ---

func runTable1(context.Context, Config, []uint64, []uint64) (string, error) {
	return dram.FormatTable1(dram.Table1()), nil
}

// --- Table 2 ---

func runTable2(ctx context.Context, cfg Config, _, _ []uint64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-36s %10s %10s\n", "program", "description", "ifetch(M)", "total(M)")
	profiles := synth.Table2()
	var sumI, sumT float64
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-12s %-36s %10.1f %10.1f\n", p.Name, p.Description, p.IFetchMillions, p.TotalMillions)
		sumI += p.IFetchMillions
		sumT += p.TotalMillions
	}
	fmt.Fprintf(&b, "%-12s %-36s %10.1f %10.1f\n", "TOTAL", "", sumI, sumT)
	fmt.Fprintf(&b, "\nconfigured scales: refs x%.5f, sizes x%.4f => ~%.1fM simulated references\n",
		cfg.RefScale, cfg.SizeScale, sumT*cfg.RefScale)
	return b.String(), nil
}

// --- Table 3 ---

func renderTable3(sh ExperimentShape, g [][][]*stats.Report) string {
	rates, sizes := sh.RatesMHz, sh.SizesBytes
	base, rp := g[0], g[1]
	var b strings.Builder
	b.WriteString("Elapsed simulated time (s); per issue rate: baseline direct-mapped L2 on top, RAMpage below.\n")
	b.WriteString(formatPairedGrid(rates, sizes, base, rp))
	b.WriteString("\nbest-vs-best:\n")
	for i, mhz := range rates {
		bi, bb := Best(base[i])
		ri, rr := Best(rp[i])
		gain := float64(bb.Cycles)/float64(rr.Cycles) - 1
		fmt.Fprintf(&b, "  %7s: baseline %.4fs @%s, rampage %.4fs @%s => rampage %+.1f%%\n",
			mem.MustClock(mhz), bb.Seconds(), mem.FormatSize(sizes[bi]),
			rr.Seconds(), mem.FormatSize(sizes[ri]), 100*gain)
	}
	return b.String()
}

// --- Table 4 ---

func renderTable4(sh ExperimentShape, g [][][]*stats.Report) string {
	rates, sizes := sh.RatesMHz, sh.SizesBytes
	cs, plain := g[0], g[1]
	var b strings.Builder
	b.WriteString("RAMpage with context switches on misses: run times (s) and speedup vs RAMpage without switches.\n")
	b.WriteString(formatGrid(rates, sizes, cs, func(r *stats.Report) string {
		return fmt.Sprintf("%.4f", r.Seconds())
	}))
	b.WriteString("\nspeedup vs no switch (same page size):\n")
	b.WriteString(formatGridPair(rates, sizes, cs, plain, func(a, p *stats.Report) string {
		return fmt.Sprintf("%.3f", float64(p.Cycles)/float64(a.Cycles))
	}))
	b.WriteString("\nbest-time speedup per issue rate:\n")
	for i, mhz := range rates {
		_, bc := Best(cs[i])
		_, bp := Best(plain[i])
		fmt.Fprintf(&b, "  %7s: %.3fx\n", mem.MustClock(mhz), float64(bp.Cycles)/float64(bc.Cycles))
	}
	return b.String()
}

// --- Table 5 ---

func renderTable5(sh ExperimentShape, g [][][]*stats.Report) string {
	var b strings.Builder
	b.WriteString("2-way associative L2 (random replacement) with context-switch traces: run times (s).\n")
	b.WriteString(formatGrid(sh.RatesMHz, sh.SizesBytes, g[0], func(r *stats.Report) string {
		return fmt.Sprintf("%.4f", r.Seconds())
	}))
	return b.String()
}

// --- Figures 2 & 3 ---

func renderFigLevels(sh ExperimentShape, g [][][]*stats.Report) string {
	mhz, sizes := sh.RatesMHz[0], sh.SizesBytes
	var b strings.Builder
	systems := []struct {
		name string
		row  []*stats.Report
	}{
		{"direct-mapped L2", g[0][0]},
		{"RAMpage", g[1][0]},
	}
	for _, sys := range systems {
		name, row := sys.name, sys.row
		fmt.Fprintf(&b, "%s @%s — fraction of run time per level:\n", name, mem.MustClock(mhz))
		fmt.Fprintf(&b, "  %-8s", "size")
		for l := stats.Level(0); l < stats.NumLevels; l++ {
			fmt.Fprintf(&b, " %8s", l)
		}
		fmt.Fprintf(&b, " %8s\n", "CPU")
		for j, size := range sizes {
			r := row[j]
			fmt.Fprintf(&b, "  %-8s", mem.FormatSize(size))
			var acc float64
			for l := stats.Level(0); l < stats.NumLevels; l++ {
				f := r.LevelFraction(l)
				acc += f
				fmt.Fprintf(&b, " %7.1f%%", 100*f)
			}
			fmt.Fprintf(&b, " %7.1f%%\n", 100*(1-acc))
		}
		b.WriteString("\n")
		b.WriteString(stats.FormatLevelBars(row, 60))
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figure 4 ---

func renderFig4(sh ExperimentShape, g [][][]*stats.Report) string {
	base, rp := g[0][0], g[1][0]
	var b strings.Builder
	b.WriteString("TLB miss + page fault handling overhead (handler refs / benchmark refs):\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "size", "baseline", "rampage")
	for j, size := range sh.SizesBytes {
		fmt.Fprintf(&b, "%-10s %11.1f%% %11.1f%%\n", mem.FormatSize(size),
			100*base[j].OverheadRatio(), 100*rp[j].OverheadRatio())
	}
	return b.String()
}

// --- Figure 5 ---

func fig5(rates, sizes []uint64) plan {
	cells := gridCells(RunSpec{System: RAMpageCS, SwitchTrace: true}, rates, sizes)
	cells = append(cells, gridCells(RunSpec{System: TwoWayL2, SwitchTrace: true}, rates, sizes)...)
	return plan{cells, func(reports []*stats.Report) string {
		g := chunk(chunk(reports, len(sizes)), len(rates))
		cs, tw := g[0], g[1]
		var b strings.Builder
		b.WriteString("Relative slowdown vs the best time at each issue rate (0 = best; n means 1.n x slower).\n")
		b.WriteString("\nRAMpage (context switches on misses):\n")
		b.WriteString(relativeGrid(rates, sizes, cs, tw, true))
		b.WriteString("\n2-way associative L2:\n")
		b.WriteString(relativeGrid(rates, sizes, cs, tw, false))
		return b.String()
	}}
}

// relativeGrid renders the Figure 5 measure for one of the two systems
// against the per-rate best across both.
func relativeGrid(rates, sizes []uint64, cs, tw [][]*stats.Report, pickCS bool) string {
	var b strings.Builder
	b.WriteString(header(sizes))
	for i, mhz := range rates {
		_, bc := Best(cs[i])
		_, bt := Best(tw[i])
		best := bc.Cycles
		if bt.Cycles < best {
			best = bt.Cycles
		}
		row := cs[i]
		if !pickCS {
			row = tw[i]
		}
		fmt.Fprintf(&b, "%-8s", mem.MustClock(mhz))
		for _, r := range row {
			fmt.Fprintf(&b, " %8.3f", float64(r.Cycles)/float64(best)-1)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Ablations ---

func bigTLB(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"RAMpage run time (s) with the paper TLB (64 fully-assoc) vs a 1K-entry 2-way TLB (§6.3):\n", "page", 12,
		column{"tlb-64", RunSpec{System: RAMpage}},
		column{"tlb-1k", RunSpec{System: RAMpage, TLBEntries: 1024, TLBAssoc: 2}})
}

func pipelined(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"RAMpage-CS run time (s), unpipelined vs pipelined Direct Rambus (§6.3):\n", "page", 12,
		column{"unpipelined", RunSpec{System: RAMpageCS, SwitchTrace: true}},
		column{"pipelined", RunSpec{System: RAMpageCS, SwitchTrace: true, PipelinedDRAM: true}})
}

func victim(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"Baseline direct-mapped L2 run time (s), with and without a 16-entry victim cache (§3.2):\n", "block", 12,
		column{"plain", RunSpec{System: BaselineDM}},
		column{"victim", RunSpec{System: BaselineDM, VictimEntries: 16}})
}

func bigL1(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"Run time (s) with the aggressive L1 of §6.3 (64KB each, 8-way):\n", "size", 14,
		column{"2way-bigL1", RunSpec{System: TwoWayL2, SwitchTrace: true, L1Bytes: 64 << 10, L1Assoc: 8}},
		column{"rampage-bigL1", RunSpec{System: RAMpageCS, SwitchTrace: true, L1Bytes: 64 << 10, L1Assoc: 8}})
}

// --- grid formatting ---

func header(sizes []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "issue")
	for _, s := range sizes {
		fmt.Fprintf(&b, " %8s", mem.FormatSize(s))
	}
	b.WriteString("\n")
	return b.String()
}

func formatGrid(rates, sizes []uint64, grid [][]*stats.Report, cell func(*stats.Report) string) string {
	var b strings.Builder
	b.WriteString(header(sizes))
	for i, mhz := range rates {
		fmt.Fprintf(&b, "%-8s", mem.MustClock(mhz))
		for _, r := range grid[i] {
			fmt.Fprintf(&b, " %8s", cell(r))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatGridPair(rates, sizes []uint64, a, p [][]*stats.Report, cell func(a, p *stats.Report) string) string {
	var b strings.Builder
	b.WriteString(header(sizes))
	for i, mhz := range rates {
		fmt.Fprintf(&b, "%-8s", mem.MustClock(mhz))
		for j := range sizes {
			fmt.Fprintf(&b, " %8s", cell(a[i][j], p[i][j]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// formatPairedGrid renders the paper's Table 3 layout: for each issue
// rate, the cache-based hierarchy on top and RAMpage below.
func formatPairedGrid(rates, sizes []uint64, top, bottom [][]*stats.Report) string {
	var b strings.Builder
	b.WriteString(header(sizes))
	for i, mhz := range rates {
		fmt.Fprintf(&b, "%-8s", mem.MustClock(mhz))
		for _, r := range top[i] {
			fmt.Fprintf(&b, " %8.4f", r.Seconds())
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-8s", "")
		for _, r := range bottom[i] {
			fmt.Fprintf(&b, " %8.4f", r.Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SortedExperimentIDs returns the registry keys in order.
func SortedExperimentIDs() []string {
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
