// Command perfbench is the repository benchmark: it runs one named
// workload against the public entry points of internal/harness,
// internal/sim and internal/server, checks every output for
// correctness, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload fastpath --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics a user of the
// simulator or the service would see. With --trace 1 it makes a
// separate traced run that times calls into each layer from outside
// (nothing inside the program is instrumented) and prints the
// per-layer metrics plus the tracing overhead.
//
// Output: human-readable "host" and "metric" lines, then as the last
// line one JSON object with the keys correct, attempted, failed and
// metrics. An operation is a simulated grid cell or an HTTP request;
// one that fails or returns a wrong document counts in failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	// pass performs the workload's set-up and one measured pass in this
	// process.
	pass func(ctx context.Context, o options) (passReport, error)
	// traced makes the traced run.
	traced func(ctx context.Context, o options) (result, error)
}

// workloads lists the benchmark's workloads. Why each one:
//
//   - fastpath: regenerates the fig2 and fig4 documents (baseline-DM plus
//     RAMpage, no switch traces, 24 cells). Almost all host time goes to
//     wide ExecBatchColumnar windows (the fused TLB→L1 path plus
//     in-machine handlers); the scheduler's single-reference path,
//     ExecTrace and AdvanceTo are never called, so an optimisation of
//     those layers should predict no change here.
//   - switch: regenerates table4 restricted to 4000 MHz (RAMpage-CS with
//     switch traces plus plain RAMpage, 12 cells), the table4 bottleneck.
//     It uses the machine layer differently from fastpath: single-
//     reference windows while a page is in flight, context-switch traces
//     through ExecTrace, idling in AdvanceTo. The slowest cell sets wall
//     time.
//   - service: an in-process server on loopback driven by one closed-loop
//     client at quick scale: cold, cached, streamed and disk-hit
//     requests. This is where jobs, the memory and disk stores,
//     checkpoints, JSON and SSE framing do the work; simulation is small
//     but non-zero, and non-clock policy victim selection runs only here.
var workloads = []workload{
	{
		name:   "fastpath",
		pass:   func(ctx context.Context, o options) (passReport, error) { return sweepPass(ctx, o, fastpathDocs) },
		traced: func(ctx context.Context, o options) (result, error) { return tracedSweep(ctx, o, fastpathDocs) },
	},
	{
		name:   "switch",
		pass:   func(ctx context.Context, o options) (passReport, error) { return sweepPass(ctx, o, switchDocs) },
		traced: func(ctx context.Context, o options) (result, error) { return tracedSweep(ctx, o, switchDocs) },
	},
	{
		name: "service",
		pass: func(ctx context.Context, o options) (passReport, error) {
			return servicePass(ctx, o, newServiceScript(o.seed))
		},
		traced: func(ctx context.Context, o options) (result, error) {
			return tracedService(ctx, o, newServiceScript(o.seed))
		},
	},
}

// options are the parsed command line plus the environment a run
// writes into.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// workers bounds sweep parallelism and client concurrency: the
	// host's CPU count, at most maxWorkers.
	workers int
	// scratch is a private directory inside the checkout for disk
	// stores; it is removed when the run ends.
	scratch string
	// goldenDir holds the committed golden documents (seed 42, default
	// scale).
	goldenDir string
	// scale names the harness scale the sweep workloads run at; tests
	// shrink it to "quick".
	scale string
}

// maxWorkers caps parallelism so a run loads the host the same way on
// machines that report more CPUs than their quota allows.
const maxWorkers = 2

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one workload run reports.
type result struct {
	attempted int
	failed    int
	// metrics are the declared metrics of the run's mode (end-to-end
	// or per-layer); info are further measurements printed as metric
	// lines but left out of the final JSON object.
	metrics []metric
	info    []metric
	// failures describes the first few failed operations.
	failures []string
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add appends a declared metric.
func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// addInfo appends an informational metric.
func (r *result) addInfo(name string, value float64, unit string) {
	r.info = append(r.info, metric{name, value, unit})
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fastpath, switch or service")
	seed := fs.Uint64("seed", 42, "workload seed (42 is the seed the committed goldens use)")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 makes the traced run that prints per-layer metrics")
	pass := fs.Bool("pass", false, "internal: perform the set-up and one measured pass, and print them as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload fastpath|switch|service, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o, cleanup, err := newOptions(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pass {
		p, err := wl.pass(ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s pass: %v\n", wl.name, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			return 1
		}
		return 0
	}

	var res result
	if o.trace {
		res, err = wl.traced(ctx, o)
	} else {
		res, err = measure(ctx, wl.name, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printResult(os.Stdout, wl.name, o, res)
	return 0
}

// newOptions resolves the run's environment: the golden directory of
// the checkout (the benchmark refuses to run outside one) and a fresh
// scratch directory under the build directory.
func newOptions(seed uint64, seconds float64, trace bool) (options, func(), error) {
	golden := filepath.Join("testdata", "golden")
	if st, err := os.Stat(golden); err != nil || !st.IsDir() {
		return options{}, nil, fmt.Errorf("no %s directory: run from the repository root", golden)
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return options{}, nil, err
	}
	scratch, err := os.MkdirTemp(build, "perfbench-run-")
	if err != nil {
		return options{}, nil, err
	}
	o := options{
		seed:      seed,
		seconds:   seconds,
		trace:     trace,
		workers:   min(runtime.NumCPU(), maxWorkers),
		scratch:   scratch,
		goldenDir: golden,
		scale:     "default",
	}
	return o, func() { os.RemoveAll(scratch) }, nil
}

// printResult writes the host fingerprint, one line per metric and the
// final JSON object.
func printResult(w io.Writer, name string, o options, res result) {
	host, _ := json.Marshal(hostFingerprint())
	fmt.Fprintf(w, "host %s\n", host)
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "workload %s seed %d mode %s attempted %d failed %d error_rate %g\n",
		name, o.seed, mode, res.attempted, res.failed, errorRate(res))
	for _, f := range res.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	for _, m := range append(append([]metric(nil), res.metrics...), res.info...) {
		fmt.Fprintf(w, "metric %s = %s %s\n", m.name, formatValue(m.value), m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// errorRate is failed ÷ attempted operations.
func errorRate(res result) float64 {
	if res.attempted == 0 {
		return 1
	}
	return float64(res.failed) / float64(res.attempted)
}

// hostFingerprint identifies the host and build a result came from;
// timings are only comparable between results with equal fingerprints.
func hostFingerprint() map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo on Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passReport is one measured pass, made in its own process.
type passReport struct {
	Setup   float64 `json:"setup_s"`
	Wall    float64 `json:"wall_s"`
	SimRefs uint64  `json:"sim_refs"`
	RSS     float64 `json:"rss_mb"`
	// Attempted and Failed count the pass's operations; Failures
	// describes the first few failed ones.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest hashes every document the pass produced: passes of one
	// seed must agree.
	Digest string `json:"digest"`
	// Latencies holds the service's request latencies by class.
	Latencies map[string][]float64 `json:"latencies_ms,omitempty"`
}

// minPasses is the fewest measured passes a run makes, whatever
// --seconds says.
const minPasses = 3

// measure makes measured passes, each in a fresh child process, until
// o.seconds have gone by and at least minPasses are done. On the
// reference host a pass's time varies more between processes (where
// the workload and heap land in memory) than between passes of one
// process, so every pass gets its own process, and with it its own
// set-up, which is work every process pays once.
func measure(ctx context.Context, name string, o options) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var passes []passReport
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) < minPasses || time.Now().Before(deadline) {
		cmd := exec.CommandContext(ctx, exe, "--pass", "--workload", name,
			"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		var p passReport
		if err := json.Unmarshal(out, &p); err != nil {
			return result{}, fmt.Errorf("pass %d output: %w", len(passes)+1, err)
		}
		passes = append(passes, p)
	}
	return summarize(passes), nil
}

// summarize turns passes into the end-to-end result: medians over the
// passes, every pass's operations, and one more operation per later
// pass that must reproduce the first pass's documents.
func summarize(passes []passReport) result {
	var res result
	var setups, walls, rates, rss []float64
	lat := map[string][]float64{}
	for i, p := range passes {
		res.attempted += p.Attempted
		for _, f := range p.Failures {
			if len(res.failures) < 10 {
				res.failures = append(res.failures, fmt.Sprintf("pass %d: %s", i+1, f))
			}
		}
		res.failed += p.Failed
		if i > 0 {
			res.attempted++
			if p.Digest != passes[0].Digest {
				res.fail("pass %d: documents differ from pass 1's", i+1)
			}
		}
		setups = append(setups, p.Setup)
		walls = append(walls, p.Wall)
		rates = append(rates, float64(p.SimRefs)/p.Wall/1e6)
		rss = append(rss, p.RSS)
		for class, xs := range p.Latencies {
			lat[class] = append(lat[class], xs...)
		}
	}
	res.add("wall_s", median(walls), "s")
	res.add("setup_s", median(setups), "s")
	res.add("sim_mrefs_per_s", median(rates), "Mref/s")
	res.add("max_rss_mb", median(rss), "MiB")
	for _, c := range latencyClasses {
		if xs, ok := lat[c.name]; ok {
			for _, q := range c.quantiles {
				res.addInfo(fmt.Sprintf("%s_p%d_ms", c.name, int(q*100+0.5)), quantile(xs, q), "ms")
			}
			res.addInfo(c.name+"_samples", float64(len(xs)), "count")
		}
	}
	addSamples(&res, "wall_s", walls, "s")
	addSamples(&res, "setup_s", setups, "s")
	return res
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// addSamples reports each sample behind a median as an informational
// metric, in measurement order.
func addSamples(res *result, name string, xs []float64, unit string) {
	for i, x := range xs {
		res.addInfo(fmt.Sprintf("%s.%d", name, i+1), x, unit)
	}
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
