package harness

import (
	"context"
	"fmt"
	"strings"

	"rampage/internal/mem"
	"rampage/internal/policy"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// The experiments for the paper's future-work directions implemented
// in this repository (beyond the §6.3 ablations in experiments.go):
//
//   - sdram: swap the Direct Rambus for the §3.3 wide SDRAM design;
//   - threads: lightweight thread switches on misses (§3.2);
//   - adaptive: dynamic SRAM page sizing (§6.2);
//   - perbench: per-program optimal page size (§6.3 "differences in
//     individual application behaviour").

// runPolicies is the policy lab's text form, rendered from the cells
// of the "policies" experiment document (testdata/golden/policies.json):
// the RAMpage machine at the paper's 1 GHz midpoint under every
// replacement policy, swept across the page sizes, with PASS/FAIL
// verdicts on the structural claims the lab depends on.
func runPolicies(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	sh, err := ShapeOf("policies", rates, sizes)
	if err != nil {
		return "", err
	}
	reports, err := runCells(ctx, cfg, specCells(sh.CellSpecs()))
	if err != nil {
		return "", err
	}
	sizes = sh.SizesBytes
	// The document lists its systems in its own order; the text prints
	// them in policy.Names() order.
	byName := make(map[string][]*stats.Report, len(sh.Policies))
	for i, g := range sh.grids(reports) {
		name := sh.Policies[i]
		if name == "" {
			name = policy.Clock
		}
		byName[name] = g[0]
	}
	// P-determinism is an assertion that a repeated simulation is
	// bit-identical, so the repeat is a real second run.
	rerun, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: sh.RatesMHz[0], SizeBytes: sizes[len(sizes)-1], Policy: policy.AWRP})
	if err != nil {
		return "", err
	}

	names := policy.Names()
	var b strings.Builder
	b.WriteString("SRAM page-replacement policies on the RAMpage machine at 1GHz.\n")
	b.WriteString("clock is the paper's §4.5 algorithm; fifo/random are baselines; awrp\n")
	b.WriteString("adapts a recency+frequency ranking; bandwidth protects high-reuse\n")
	b.WriteString("pages to suppress low-benefit SRAM<->DRAM page movement.\n\n")
	fmt.Fprintf(&b, "%-11s", "policy")
	for _, s := range sizes {
		fmt.Fprintf(&b, " %9s", mem.FormatSize(s))
	}
	fmt.Fprintf(&b, " %12s\n", "faults@best")
	for _, name := range names {
		fmt.Fprintf(&b, "%-11s", name)
		for _, rep := range byName[name] {
			fmt.Fprintf(&b, " %9.4f", rep.Seconds())
		}
		_, best := Best(byName[name])
		fmt.Fprintf(&b, " %12d\n", best.PageFaults)
	}

	// Verdicts: the structural facts the policy dimension guarantees.
	bestSecs := func(name string) float64 {
		_, rep := Best(byName[name])
		return rep.Seconds()
	}
	first := byName[names[0]]
	sameWork := true
	for _, name := range names[1:] {
		for j := range sizes {
			if byName[name][j].BenchRefs != first[j].BenchRefs {
				sameWork = false
			}
		}
	}
	deterministic := rerun.Cycles == byName[policy.AWRP][len(sizes)-1].Cycles
	random := bestSecs(policy.Random)
	informed := random
	for _, name := range []string{policy.Clock, policy.AWRP, policy.Bandwidth, policy.FIFO} {
		if s := bestSecs(name); s < informed {
			informed = s
		}
	}
	b.WriteString("\n")
	verdict := func(id, text string, pass bool, detail string) {
		mark := "FAIL"
		if pass {
			mark = "PASS"
		}
		fmt.Fprintf(&b, "  [%s] %-12s %s (%s)\n", mark, id, text, detail)
	}
	verdict("P-workload", "every policy executes the identical workload", sameWork,
		fmt.Sprintf("bench refs %d", first[0].BenchRefs))
	verdict("P-determinism", "policy runs are bit-reproducible", deterministic,
		fmt.Sprintf("awrp repeat: %d cycles", rerun.Cycles))
	verdict("P-informed", "an informed policy beats blind random at its best point", informed <= random,
		fmt.Sprintf("best informed %.4fs vs random %.4fs", informed, random))
	return b.String(), nil
}

// runWarmup reproduces the §4.2 warm-up measurement: "For 128-byte
// SRAM pages, it takes about 50-million references before every page
// in the RAMpage SRAM main memory is occupied; this figure drops off
// with page size to about 25-million references" (at 4 KB). The
// absolute counts scale with the configuration; the ~2x ratio between
// the ends of the sweep is the reproduction target.
func runWarmup(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	sizes = defSizes(sizes)
	var b strings.Builder
	b.WriteString("References until every SRAM page frame is occupied (§4.2 warm-up):\n")
	fmt.Fprintf(&b, "%-10s %14s %12s\n", "page", "refs-to-fill", "frames")
	var first, last float64
	for i, size := range sizes {
		refs, frames, err := warmupRefs(cfg, size)
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = float64(refs)
		}
		if i == len(sizes)-1 {
			last = float64(refs)
		}
		fmt.Fprintf(&b, "%-10s %14d %12d\n", mem.FormatSize(size), refs, frames)
	}
	if last > 0 {
		fmt.Fprintf(&b, "\nsmallest/largest page fill ratio: %.2fx (paper: ~2x, 50M vs 25M refs)\n", first/last)
	}
	return b.String(), nil
}

// warmupRefs feeds the interleaved workload to a RAMpage machine until
// the SRAM is full, returning the references consumed.
func warmupRefs(cfg Config, pageBytes uint64) (uint64, uint64, error) {
	params := sim.DefaultParams(1000)
	params.Seed = cfg.Seed
	machine, err := sim.NewRAMpage(sim.RAMpageConfig{
		Params:    params,
		SRAMBytes: cfg.SRAMBytes(pageBytes),
		PageBytes: pageBytes,
	})
	if err != nil {
		return 0, 0, err
	}
	readers, err := cfg.Readers()
	if err != nil {
		return 0, 0, err
	}
	il, err := trace.NewInterleaver(readers, cfg.Quantum)
	if err != nil {
		return 0, 0, err
	}
	mm := machine.Memory()
	frames := mm.Frames() - mm.OSPages()
	var n uint64
	for mm.FreeFrames() > 0 {
		ref, err := il.Next()
		if err != nil {
			// Workload exhausted before the SRAM filled: report what
			// was consumed.
			return n, frames, nil
		}
		if _, _, err := machine.ExecBatch([]mem.Ref{ref}); err != nil {
			return 0, 0, err
		}
		n++
	}
	return n, frames, nil
}

// PhasedTable2 returns the Table 2 profiles with explicit program
// phases: each multi-region program first concentrates on its first
// region, then on the remainder, then mixes — the input/compute/output
// structure real programs have and the situation §6.2's dynamic page
// sizing is motivated by.
func PhasedTable2() []synth.Profile {
	profiles := synth.Table2()
	for i, p := range profiles {
		if len(p.Regions) < 2 {
			continue
		}
		first := make([]float64, len(p.Regions))
		rest := make([]float64, len(p.Regions))
		mixed := make([]float64, len(p.Regions))
		for j, r := range p.Regions {
			mixed[j] = r.Weight
			if j == 0 {
				first[j] = r.Weight
			} else {
				rest[j] = r.Weight
			}
		}
		profiles[i].Phases = []synth.Phase{
			{Frac: 1, Weights: first},
			{Frac: 1, Weights: rest},
			{Frac: 1, Weights: mixed},
		}
	}
	return profiles
}

func phased(rates, sizes []uint64) plan {
	mhz := rates[len(rates)-1]
	phasedRun := func(spec RunSpec) cell { return cell{spec: spec, wl: workload{phased: true}} }
	cells := make([]cell, 0, len(sizes)+1)
	for _, size := range sizes {
		cells = append(cells, phasedRun(RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size}))
	}
	cells = append(cells, phasedRun(RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[0], AdaptivePages: true}))
	return plan{cells, func(reports []*stats.Report) string {
		var b strings.Builder
		b.WriteString("Adaptive page sizing on a *phased* workload (input/compute/output\n")
		b.WriteString("phases per program) — the situation §6.2's dynamic tuning targets.\n")
		fmt.Fprintf(&b, "%-14s %12s\n", "config", "seconds")
		var best float64
		for j, size := range sizes {
			rep := reports[j]
			if best == 0 || rep.Seconds() < best {
				best = rep.Seconds()
			}
			fmt.Fprintf(&b, "fixed %-8s %12.4f\n", mem.FormatSize(size), rep.Seconds())
		}
		adaptive := reports[len(sizes)]
		fmt.Fprintf(&b, "%-14s %12.4f  (%d resizes; best fixed %.4f)\n",
			"adaptive", adaptive.Seconds(), adaptive.Resizes, best)
		return b.String()
	}}
}

func banked(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"Flat 50ns-per-reference Rambus vs the banked open-row RDRAM model\n"+
			"(§6.3). Row-buffer hits start in 20ns instead of 50ns, so workloads\n"+
			"with DRAM-page locality gain; transfers spanning rows pay per row.\n", "size", 12,
		column{"base-flat", RunSpec{System: BaselineDM}},
		column{"base-banked", RunSpec{System: BaselineDM, BankedDRAM: true}},
		column{"rp-flat", RunSpec{System: RAMpage}},
		column{"rp-banked", RunSpec{System: RAMpage, BankedDRAM: true}})
}

func channels(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"RAMpage run time (s) with the DRAM striped across Rambus channels\n"+
			"(§3.3: more channels raise bandwidth but not latency, so big pages\n"+
			"benefit most and the 50ns startup bounds the gain at small pages).\n", "page", 10,
		column{"x1", RunSpec{System: RAMpage, DRAMChannels: 1}},
		column{"x2", RunSpec{System: RAMpage, DRAMChannels: 2}},
		column{"x4", RunSpec{System: RAMpage, DRAMChannels: 4}})
}

func prefetch(rates, sizes []uint64) plan {
	return atTopRate(rates, sizes, []RunSpec{
		{System: RAMpage},
		{System: RAMpage, PrefetchNext: true},
	}, func(rows [][]*stats.Report) string {
		var b strings.Builder
		b.WriteString("RAMpage run time (s) with sequential next-page prefetch (§3.2:\n")
		b.WriteString("\"Prefetch could be added to RAMpage\"). Hits/issued shows accuracy.\n")
		fmt.Fprintf(&b, "%-10s %12s %12s %10s %14s\n", "page", "demand", "prefetch", "speedup", "hits/issued")
		for j, size := range sizes {
			plain, pf := rows[j][0], rows[j][1]
			ratio := "-"
			if pf.Prefetches > 0 {
				ratio = fmt.Sprintf("%d/%d", pf.PrefetchHits, pf.Prefetches)
			}
			fmt.Fprintf(&b, "%-10s %12.4f %12.4f %10.3f %14s\n", mem.FormatSize(size),
				plain.Seconds(), pf.Seconds(), float64(plain.Cycles)/float64(pf.Cycles), ratio)
		}
		return b.String()
	})
}

func sdram(rates, sizes []uint64) plan {
	return secondsTable(rates, sizes,
		"RAMpage run time (s): Direct Rambus vs the same-peak SDRAM (§3.3).\n"+
			"With equal startup latency and peak bandwidth the two hierarchies are\n"+
			"cycle-identical on width-multiple transfers, demonstrating the paper's\n"+
			"claim that its Rambus model matches an SDRAM implementation.\n", "page", 12,
		column{"rambus", RunSpec{System: RAMpage}},
		column{"sdram", RunSpec{System: RAMpage, SDRAM: true}})
}

func threads(rates, sizes []uint64) plan {
	return atTopRate(rates, sizes, []RunSpec{
		{System: RAMpageCS, SwitchTrace: true},
		{System: RAMpageCS, SwitchTrace: true, LightweightThreads: true},
	}, func(rows [][]*stats.Report) string {
		var b strings.Builder
		fmt.Fprintf(&b, "RAMpage with switches on misses: full process switch (~%d refs) vs\n",
			synth.ContextSwitchRefCount())
		fmt.Fprintf(&b, "lightweight thread switch (~%d refs) on miss-induced switches (§3.2).\n",
			synth.ThreadSwitchRefCount())
		fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "page", "process", "thread", "speedup")
		for j, size := range sizes {
			proc, thr := rows[j][0], rows[j][1]
			fmt.Fprintf(&b, "%-10s %12.4f %12.4f %10.3f\n", mem.FormatSize(size),
				proc.Seconds(), thr.Seconds(), float64(proc.Cycles)/float64(thr.Cycles))
		}
		return b.String()
	})
}

// adaptive compares, at every issue rate, the fixed page sizes against
// the §6.2 controller starting from the smallest; the smallest fixed
// size's cell doubles as the "fixed-128B" column.
func adaptive(rates, sizes []uint64) plan {
	cells := make([]cell, 0, len(rates)*(len(sizes)+1))
	for _, mhz := range rates {
		for _, size := range sizes {
			cells = append(cells, cell{spec: RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size}})
		}
		cells = append(cells, cell{spec: RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[0], AdaptivePages: true}})
	}
	return plan{cells, func(reports []*stats.Report) string {
		var b strings.Builder
		b.WriteString("Dynamic SRAM page sizing (§6.2): a hill-climbing controller\n")
		b.WriteString("starts at the smallest paper page size and retunes on epoch cost,\n")
		b.WriteString("paying a full SRAM flush for every probe.\n")
		fmt.Fprintf(&b, "%-8s %14s %14s %14s %9s\n", "issue", "fixed-128B", "fixed-best", "adaptive", "resizes")
		for i, row := range chunk(reports, len(sizes)+1) {
			fixed, adaptive := row[:len(sizes)], row[len(sizes)]
			best := fixed[0].Seconds()
			for _, r := range fixed[1:] {
				best = min(best, r.Seconds())
			}
			fmt.Fprintf(&b, "%-8s %14.4f %14.4f %14.4f %9d\n", mem.MustClock(rates[i]),
				fixed[0].Seconds(), best, adaptive.Seconds(), adaptive.Resizes)
		}
		return b.String()
	}}
}

func perBench(_, sizes []uint64) plan {
	profiles := synth.Table2()
	cells := make([]cell, 0, len(profiles)*len(sizes))
	for _, p := range profiles {
		for _, size := range sizes {
			cells = append(cells, cell{spec: RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: size}, wl: workload{profile: p.Name}})
		}
	}
	return plan{cells, func(reports []*stats.Report) string {
		var b strings.Builder
		b.WriteString("Per-program optimal RAMpage page size at 1GHz (§6.3: \"variation can\n")
		b.WriteString("make a difference in individual programs\"). Times in simulated ms.\n")
		fmt.Fprintf(&b, "%-12s", "program")
		for _, s := range sizes {
			fmt.Fprintf(&b, " %8s", mem.FormatSize(s))
		}
		fmt.Fprintf(&b, " %8s\n", "best")
		for i, row := range chunk(reports, len(sizes)) {
			fmt.Fprintf(&b, "%-12s", profiles[i].Name)
			bestIdx, bestMS := 0, 0.0
			for j, rep := range row {
				ms := rep.Seconds() * 1000
				fmt.Fprintf(&b, " %8.2f", ms)
				if j == 0 || ms < bestMS {
					bestIdx, bestMS = j, ms
				}
			}
			fmt.Fprintf(&b, " %8s\n", mem.FormatSize(sizes[bestIdx]))
		}
		return b.String()
	}}
}
