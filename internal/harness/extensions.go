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

// extensionExperiments returns the experiments for the paper's
// future-work directions implemented in this repository (beyond the
// §6.3 ablations in experiments.go):
//
//   - sdram: swap the Direct Rambus for the §3.3 wide SDRAM design;
//   - threads: lightweight thread switches on misses (§3.2);
//   - adaptive: dynamic SRAM page sizing (§6.2);
//   - perbench: per-program optimal page size (§6.3 "differences in
//     individual application behaviour").
func extensionExperiments() []Experiment {
	return []Experiment{
		{"sdram", "Extension (§3.3): SDRAM in place of Direct Rambus", runSDRAM},
		{"threads", "Extension (§3.2): lightweight thread switch on miss", runThreads},
		{"adaptive", "Extension (§6.2): dynamic SRAM page sizing", runAdaptive},
		{"perbench", "Extension (§6.3): per-program optimal page size", runPerBench},
		{"prefetch", "Extension (§3.2): sequential next-page prefetch", runPrefetch},
		{"channels", "Extension (§3.3): multiple Rambus channels", runChannels},
		{"banked", "Extension (§6.3): banked open-row RDRAM timing", runBanked},
		{"policies", "Policy lab: SRAM page replacement (clock/fifo/random/awrp/bandwidth)", runPolicies},
		{"verdict", "Self-check: every paper claim, PASS/FAIL", runVerdict},
		{"phased", "Extension (§6.2): adaptive paging on a phased workload", runPhased},
		{"warmup", "§4.2 warm-up analysis: references to fill the SRAM", runWarmup},
	}
}

// runPolicies is the policy lab's text form: the RAMpage machine at
// the paper's 1 GHz midpoint under every replacement policy, swept
// across the page sizes, with PASS/FAIL verdicts on the structural
// claims the lab depends on. The JSON form of the same grid is the
// "policies" experiment document (testdata/golden/policies.json).
func runPolicies(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	sizes = defSizes(sizes)
	const mhz = 1000
	type row struct {
		name    string
		reports []*stats.Report
	}
	rows := make([]row, 0, len(policy.Names()))
	for _, pol := range policy.Names() {
		reports := make([]*stats.Report, len(sizes))
		for j, size := range sizes {
			rep, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size, Policy: pol})
			if err != nil {
				return "", err
			}
			reports[j] = rep
		}
		rows = append(rows, row{pol, reports})
	}

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
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.name)
		best := 0
		for j, rep := range r.reports {
			fmt.Fprintf(&b, " %9.4f", rep.Seconds())
			if rep.Cycles < r.reports[best].Cycles {
				best = j
			}
		}
		fmt.Fprintf(&b, " %12d\n", r.reports[best].PageFaults)
	}

	// Verdicts: the structural facts the policy dimension guarantees.
	bestSecs := func(r row) float64 {
		_, rep := Best(r.reports)
		return rep.Seconds()
	}
	sameWork := true
	for _, r := range rows[1:] {
		for j := range sizes {
			if r.reports[j].BenchRefs != rows[0].reports[j].BenchRefs {
				sameWork = false
			}
		}
	}
	byName := make(map[string]row, len(rows))
	for _, r := range rows {
		byName[r.name] = r
	}
	rerun, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[len(sizes)-1], Policy: policy.AWRP})
	if err != nil {
		return "", err
	}
	deterministic := rerun.Cycles == byName[policy.AWRP].reports[len(sizes)-1].Cycles
	random := bestSecs(byName[policy.Random])
	informed := random
	for _, name := range []string{policy.Clock, policy.AWRP, policy.Bandwidth, policy.FIFO} {
		if s := bestSecs(byName[name]); s < informed {
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
		fmt.Sprintf("bench refs %d", rows[0].reports[0].BenchRefs))
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

func runPhased(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	phasedCfg := cfg
	phasedCfg.profiles = PhasedTable2()
	var b strings.Builder
	b.WriteString("Adaptive page sizing on a *phased* workload (input/compute/output\n")
	b.WriteString("phases per program) — the situation §6.2's dynamic tuning targets.\n")
	fmt.Fprintf(&b, "%-14s %12s\n", "config", "seconds")
	var best float64
	for _, size := range sizes {
		rep, err := Run(ctx, phasedCfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size})
		if err != nil {
			return "", err
		}
		if best == 0 || rep.Seconds() < best {
			best = rep.Seconds()
		}
		fmt.Fprintf(&b, "fixed %-8s %12.4f\n", mem.FormatSize(size), rep.Seconds())
	}
	adaptive, err := Run(ctx, phasedCfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[0], AdaptivePages: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-14s %12.4f  (%d resizes; best fixed %.4f)\n",
		"adaptive", adaptive.Seconds(), adaptive.Resizes, best)
	return b.String(), nil
}

func runBanked(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	var b strings.Builder
	b.WriteString("Flat 50ns-per-reference Rambus vs the banked open-row RDRAM model\n")
	b.WriteString("(§6.3). Row-buffer hits start in 20ns instead of 50ns, so workloads\n")
	b.WriteString("with DRAM-page locality gain; transfers spanning rows pay per row.\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s\n", "size", "base-flat", "base-banked", "rp-flat", "rp-banked")
	for _, size := range sizes {
		bf, err := Run(ctx, cfg, RunSpec{System: BaselineDM, IssueMHz: mhz, SizeBytes: size})
		if err != nil {
			return "", err
		}
		bb, err := Run(ctx, cfg, RunSpec{System: BaselineDM, IssueMHz: mhz, SizeBytes: size, BankedDRAM: true})
		if err != nil {
			return "", err
		}
		rf, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size})
		if err != nil {
			return "", err
		}
		rb, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size, BankedDRAM: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %12.4f %12.4f %12.4f %12.4f\n", mem.FormatSize(size),
			bf.Seconds(), bb.Seconds(), rf.Seconds(), rb.Seconds())
	}
	return b.String(), nil
}

func runChannels(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	var b strings.Builder
	b.WriteString("RAMpage run time (s) with the DRAM striped across Rambus channels\n")
	b.WriteString("(§3.3: more channels raise bandwidth but not latency, so big pages\n")
	b.WriteString("benefit most and the 50ns startup bounds the gain at small pages).\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "page", "x1", "x2", "x4")
	for _, size := range sizes {
		fmt.Fprintf(&b, "%-10s", mem.FormatSize(size))
		for _, ch := range []int{1, 2, 4} {
			rep, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size, DRAMChannels: ch})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %10.4f", rep.Seconds())
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runPrefetch(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	var b strings.Builder
	b.WriteString("RAMpage run time (s) with sequential next-page prefetch (§3.2:\n")
	b.WriteString("\"Prefetch could be added to RAMpage\"). Hits/issued shows accuracy.\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %14s\n", "page", "demand", "prefetch", "speedup", "hits/issued")
	for _, size := range sizes {
		plain, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size})
		if err != nil {
			return "", err
		}
		pf, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size, PrefetchNext: true})
		if err != nil {
			return "", err
		}
		ratio := "-"
		if pf.Prefetches > 0 {
			ratio = fmt.Sprintf("%d/%d", pf.PrefetchHits, pf.Prefetches)
		}
		fmt.Fprintf(&b, "%-10s %12.4f %12.4f %10.3f %14s\n", mem.FormatSize(size),
			plain.Seconds(), pf.Seconds(), float64(plain.Cycles)/float64(pf.Cycles), ratio)
	}
	return b.String(), nil
}

func runSDRAM(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	var b strings.Builder
	b.WriteString("RAMpage run time (s): Direct Rambus vs the same-peak SDRAM (§3.3).\n")
	b.WriteString("With equal startup latency and peak bandwidth the two hierarchies are\n")
	b.WriteString("cycle-identical on width-multiple transfers, demonstrating the paper's\n")
	b.WriteString("claim that its Rambus model matches an SDRAM implementation.\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "page", "rambus", "sdram")
	for _, size := range sizes {
		rambus, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size})
		if err != nil {
			return "", err
		}
		sdram, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size, SDRAM: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %12.4f %12.4f\n", mem.FormatSize(size), rambus.Seconds(), sdram.Seconds())
	}
	return b.String(), nil
}

func runThreads(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	mhz := rates[len(rates)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "RAMpage with switches on misses: full process switch (~%d refs) vs\n",
		synth.ContextSwitchRefCount())
	fmt.Fprintf(&b, "lightweight thread switch (~%d refs) on miss-induced switches (§3.2).\n",
		synth.ThreadSwitchRefCount())
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "page", "process", "thread", "speedup")
	for _, size := range sizes {
		proc, err := Run(ctx, cfg, RunSpec{System: RAMpageCS, IssueMHz: mhz, SizeBytes: size, SwitchTrace: true})
		if err != nil {
			return "", err
		}
		thr, err := Run(ctx, cfg, RunSpec{System: RAMpageCS, IssueMHz: mhz, SizeBytes: size, SwitchTrace: true, LightweightThreads: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %12.4f %12.4f %10.3f\n", mem.FormatSize(size),
			proc.Seconds(), thr.Seconds(), float64(proc.Cycles)/float64(thr.Cycles))
	}
	return b.String(), nil
}

func runAdaptive(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	rates, sizes = defRates(rates), defSizes(sizes)
	var b strings.Builder
	b.WriteString("Dynamic SRAM page sizing (§6.2): a hill-climbing controller\n")
	b.WriteString("starts at the smallest paper page size and retunes on epoch cost,\n")
	b.WriteString("paying a full SRAM flush for every probe.\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %9s\n", "issue", "fixed-128B", "fixed-best", "adaptive", "resizes")
	for _, mhz := range rates {
		worst, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[0]})
		if err != nil {
			return "", err
		}
		var best *struct{ s float64 }
		for _, size := range sizes {
			r, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: size})
			if err != nil {
				return "", err
			}
			if best == nil || r.Seconds() < best.s {
				best = &struct{ s float64 }{r.Seconds()}
			}
		}
		adaptive, err := Run(ctx, cfg, RunSpec{System: RAMpage, IssueMHz: mhz, SizeBytes: sizes[0], AdaptivePages: true})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %14.4f %14.4f %14.4f %9d\n", mem.MustClock(mhz),
			worst.Seconds(), best.s, adaptive.Seconds(), adaptive.Resizes)
	}
	return b.String(), nil
}

func runPerBench(ctx context.Context, cfg Config, rates, sizes []uint64) (string, error) {
	sizes = defSizes(sizes)
	var b strings.Builder
	b.WriteString("Per-program optimal RAMpage page size at 1GHz (§6.3: \"variation can\n")
	b.WriteString("make a difference in individual programs\"). Times in simulated ms.\n")
	fmt.Fprintf(&b, "%-12s", "program")
	for _, s := range sizes {
		fmt.Fprintf(&b, " %8s", mem.FormatSize(s))
	}
	fmt.Fprintf(&b, " %8s\n", "best")
	for _, p := range synth.Table2() {
		pcfg := cfg
		pcfg.ProfileName = p.Name
		fmt.Fprintf(&b, "%-12s", p.Name)
		bestIdx, bestMS := 0, 0.0
		for j, size := range sizes {
			rep, err := Run(ctx, pcfg, RunSpec{System: RAMpage, IssueMHz: 1000, SizeBytes: size})
			if err != nil {
				return "", err
			}
			ms := rep.Seconds() * 1000
			fmt.Fprintf(&b, " %8.2f", ms)
			if j == 0 || ms < bestMS {
				bestIdx, bestMS = j, ms
			}
		}
		fmt.Fprintf(&b, " %8s\n", mem.FormatSize(sizes[bestIdx]))
	}
	return b.String(), nil
}
