// Command rampage-bench regenerates the paper's tables and figures.
// Each experiment runs the corresponding parameter sweep and prints
// the rows/series the paper reports.
//
// Usage:
//
//	rampage-bench -exp table3            # one experiment, scaled default
//	rampage-bench -exp all -scale quick  # everything, fast
//	rampage-bench -list                  # what exists
//
// Experiments: table1 table2 table3 table4 table5 fig2 fig3 fig4 fig5
// plus the ablations bigtlb, pipelined, victim and biglone (see
// DESIGN.md for the per-experiment index).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rampage/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.String("scale", "default", "workload scale: quick, default, full")
		rates    = flag.String("rates", "", "comma-separated issue rates in MHz (default: paper sweep)")
		sizes    = flag.String("sizes", "", "comma-separated block/page sizes in bytes (default: paper sweep)")
		seed     = flag.Uint64("seed", 42, "deterministic seed")
		sweep    = flag.String("sweep", "", "raw sweep mode: run this system (baseline, 2way, rampage, rampage-cs) over the grid and emit CSV on stdout")
		polFlag  = flag.String("policy", "", "with -sweep on a RAMpage system: SRAM page replacement policy (clock, fifo, random, awrp, bandwidth)")
		parallel = flag.Int("parallel", 0, "sweep worker count (0 = one per CPU); results are identical at any setting")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		format   = flag.String("format", "text", "output format: text, json (versioned experiment documents; "+strings.Join(harness.JSONForms(), " ")+")")
		outDir   = flag.String("outdir", "", "with -format json: write one <id>.json per experiment here instead of stdout")
		verify   = flag.Bool("verify", false, "run under the oracle invariant checker: assert machine invariants online and fail on the first violation (results are unchanged, runs are slower)")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
		}()
	}

	if *list || (*exp == "" && *sweep == "") {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			fmt.Println("\nrun one with: rampage-bench -exp <id>")
		}
		return
	}

	cfg, err := harness.ConfigForScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	cfg.Workers = *parallel
	cfg.Verify = *verify

	rateList, err := harness.ParseGridList(*rates)
	if err != nil {
		fatal(fmt.Errorf("bad -rates: %w", err))
	}
	sizeList, err := harness.ParseGridList(*sizes)
	if err != nil {
		fatal(fmt.Errorf("bad -sizes: %w", err))
	}

	// Ctrl-C (and SIGTERM) cancel the sweeps so a long run dies cleanly
	// instead of finishing the whole grid after the interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep != "" {
		if err := runSweepCSV(ctx, cfg, *sweep, *polFlag, rateList, sizeList); err != nil {
			fatalOrInterrupted(err)
		}
		return
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments()
	} else {
		e, ok := harness.FindExperiment(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; use -list", *exp))
		}
		selected = []harness.Experiment{e}
	}

	if *format == "json" {
		if err := runJSON(ctx, cfg, selected, rateList, sizeList, *outDir, *exp == "all"); err != nil {
			fatalOrInterrupted(err)
		}
		return
	}

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		out, err := e.Run(ctx, cfg, rateList, sizeList)
		if err != nil {
			fatalOrInterrupted(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(out)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runJSON emits the versioned experiment documents. A single
// experiment with no -outdir goes to stdout (nothing else is printed,
// so the output pipes cleanly into tools/regress); otherwise one
// <id>.json file per experiment lands in the output directory.
// Experiments without a JSON form are skipped with a note when running
// "all" and rejected when named explicitly.
func runJSON(ctx context.Context, cfg harness.Config, selected []harness.Experiment, rates, sizes []uint64, outDir string, all bool) error {
	var ids []string
	for _, e := range selected {
		if !harness.HasJSONForm(e.ID) {
			if all {
				fmt.Fprintf(os.Stderr, "rampage-bench: skipping %s (no JSON form)\n", e.ID)
				continue
			}
			return fmt.Errorf("experiment %q has no JSON form (JSON covers %s)", e.ID, strings.Join(harness.JSONForms(), ", "))
		}
		ids = append(ids, e.ID)
	}
	if len(ids) == 0 {
		return fmt.Errorf("no selected experiment has a JSON form")
	}
	if outDir == "" && len(ids) > 1 {
		return fmt.Errorf("multiple JSON experiments need -outdir")
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		doc, err := harness.BuildExperimentDoc(ctx, cfg, id, rates, sizes)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if outDir == "" {
			if err := harness.WriteJSON(os.Stdout, doc); err != nil {
				return err
			}
			continue
		}
		path := filepath.Join(outDir, id+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := harness.WriteJSON(f, doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rampage-bench: wrote %s\n", path)
	}
	return nil
}

// runSweepCSV runs one system across the grid and writes CSV rows to
// stdout for external plotting.
func runSweepCSV(ctx context.Context, cfg harness.Config, system, policy string, rates, sizes []uint64) error {
	kind, err := harness.ParseSystemKind(system)
	if err != nil {
		return err
	}
	if len(rates) == 0 {
		rates = harness.IssueRatesMHz
	}
	if len(sizes) == 0 {
		sizes = harness.BlockSizes
	}
	switchTrace := kind == harness.TwoWayL2 || kind == harness.RAMpageCS
	base := harness.RunSpec{System: kind, SwitchTrace: switchTrace, Policy: policy}
	grid, err := harness.SweepSpec(ctx, cfg, base, rates, sizes)
	if err != nil {
		return err
	}
	return harness.WriteSweepCSV(os.Stdout, rates, sizes, grid)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rampage-bench:", err)
	os.Exit(1)
}

// fatalOrInterrupted treats context cancellation (Ctrl-C) as a clean
// interrupt with the conventional 130 exit status.
func fatalOrInterrupted(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "rampage-bench: interrupted")
		os.Exit(130)
	}
	fatal(err)
}
