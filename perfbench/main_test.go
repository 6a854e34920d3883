package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rampage/internal/harness"
)

// testOptions runs the workloads at quick scale with no golden.
func testOptions(t *testing.T) options {
	t.Helper()
	return options{
		seed:    42,
		seconds: 0.001,
		workers: 2,
		scratch: t.TempDir(),
		scale:   "quick",
	}
}

// TestTracedCellsMatchHarnessRun requires every traced cell, on both
// reader paths, to report exactly what the untraced harness.Run
// reports for the same spec: the traced run measures the same program.
func TestTracedCellsMatchHarnessRun(t *testing.T) {
	o := testOptions(t)
	cfg, err := harness.ConfigForScale("quick")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	specs := []harness.RunSpec{
		{System: harness.BaselineDM, IssueMHz: 1000, SizeBytes: 512},
		{System: harness.TwoWayL2, IssueMHz: 200, SizeBytes: 4096},
		{System: harness.RAMpage, IssueMHz: 1000, SizeBytes: 1024},
		{System: harness.RAMpage, IssueMHz: 4000, SizeBytes: 256, Policy: "awrp"},
		{System: harness.RAMpageCS, IssueMHz: 4000, SizeBytes: 128, SwitchTrace: true},
		{System: harness.RAMpageCS, IssueMHz: 4000, SizeBytes: 4096, SwitchTrace: true, Policy: "fifo"},
	}
	ctx := context.Background()
	want, _, err := untracedPass(ctx, o, cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{true, false} {
		p, err := tracePass(ctx, o, cfg, [][]harness.RunSpec{specs[:3], specs[3:]}, columnar)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		checkTraced(&res, specs, p, want)
		if res.failed != 0 || res.attempted != len(specs) {
			t.Fatalf("columnar=%v: %d of %d traced cells failed: %v", columnar, res.failed, res.attempted, res.failures)
		}
		for i, c := range p.cells {
			if !c.restoredSame {
				t.Errorf("columnar=%v cell %d: checkpoint round trip not verified", columnar, i)
			}
		}
		cs := p.cells[4].calls
		if cs.oneCalls == 0 || cs.execCalls == 0 {
			t.Errorf("columnar=%v: switch-on-miss cell made %d one-wide and %d trace calls, want both > 0", columnar, cs.oneCalls, cs.execCalls)
		}
		if got := p.cells[0].calls.rowCalls > 0; got == columnar {
			t.Errorf("columnar=%v: row batch calls %d", columnar, p.cells[0].calls.rowCalls)
		}
	}
}

// declared reads the metric names BENCHMARK.json declares in a section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(res result) []string {
	var names []string
	for _, m := range res.metrics {
		names = append(names, m.name+" "+m.unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Errorf("%s reports metrics\n%s\nBENCHMARK.json declares\n%s", what, g, w)
	}
}

// writeGoldens regenerates the sweep documents at quick scale into dir,
// standing in for the committed default-scale goldens.
func writeGoldens(t *testing.T, o options, dir string, docs []docSpec) {
	t.Helper()
	cfg, err := sweepConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regenerate(context.Background(), cfg, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if err := os.WriteFile(filepath.Join(dir, d.id+".json"), g.bodies[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepGoldenCheck runs a fastpath pass against goldens that
// match, then against a golden with one perturbed byte, which must fail
// cells and so raise the error rate above zero. It also pins the
// declared metric names of both modes.
func TestSweepGoldenCheck(t *testing.T) {
	o := testOptions(t)
	o.goldenDir = t.TempDir()
	writeGoldens(t, o, o.goldenDir, fastpathDocs)
	ctx := context.Background()

	p, err := sweepPass(ctx, o, fastpathDocs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed != 0 || p.Attempted != 24 {
		t.Fatalf("matching goldens: %d of %d operations failed: %v", p.Failed, p.Attempted, p.Failures)
	}
	res := summarize([]passReport{p, p})
	if res.failed != 0 {
		t.Fatalf("two equal passes: %d failed: %v", res.failed, res.failures)
	}
	sameNames(t, "fastpath", reported(res), declared(t, "end_to_end"))

	path := filepath.Join(o.goldenDir, "fig4.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"cycles": `)) + len(`"cycles": `)
	data[i] = '0' + (data[i]-'0'+1)%10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := sweepPass(ctx, o, fastpathDocs)
	if err != nil {
		t.Fatal(err)
	}
	if res := summarize([]passReport{bad}); res.failed == 0 || errorRate(res) <= 0 {
		t.Fatalf("perturbed golden byte: %d failed of %d, want failures", res.failed, res.attempted)
	}

	o.goldenDir = ""
	res, err = tracedSweep(ctx, o, switchDocs)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("traced switch: %d of %d operations failed: %v", res.failed, res.attempted, res.failures)
	}
	sameNames(t, "traced switch", reported(res), declared(t, "per_layer"))
}

// TestSummarizeRequiresRepeatablePasses fails a pass whose documents
// differ from the first pass's.
func TestSummarizeRequiresRepeatablePasses(t *testing.T) {
	a := passReport{Setup: 1, Wall: 1, SimRefs: 1, RSS: 1, Attempted: 2, Digest: "a"}
	b := a
	b.Digest = "b"
	if res := summarize([]passReport{a, a}); res.failed != 0 || res.attempted != 5 {
		t.Fatalf("equal passes: %d failed of %d", res.failed, res.attempted)
	}
	if res := summarize([]passReport{a, b}); res.failed != 1 {
		t.Fatalf("differing passes: %d failed, want 1", res.failed)
	}
}

// TestRestrictRatesKeepsLayout pins the table4 golden restriction: the
// full rate set reproduces the committed file byte for byte.
func TestRestrictRatesKeepsLayout(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "testdata", "golden", "table4.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restrictRates(data, harness.IssueRatesMHz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restricting table4 to all of its rates changed its bytes")
	}
	if _, err := restrictRates(data, []uint64{3000}); err == nil {
		t.Fatal("restricting to a rate the golden lacks succeeded")
	}
}

// smallScript is a cut-down service script for tests.
func smallScript(seed uint64) serviceScript {
	s := newServiceScript(seed)
	s.runs = []runRequest{s.runs[0], s.runs[len(s.runs)-1]}
	s.jobs = s.jobs[:1]
	s.cached = 2
	return s
}

// TestServiceScript runs a small script cleanly, then with a request
// the server must refuse, which has to raise the error rate above zero.
func TestServiceScript(t *testing.T) {
	o := testOptions(t)
	ctx := context.Background()
	p, err := servicePass(ctx, o, smallScript(o.seed))
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed != 0 || p.Attempted == 0 {
		t.Fatalf("clean script: %d of %d operations failed: %v", p.Failed, p.Attempted, p.Failures)
	}
	res := summarize([]passReport{p})
	sameNames(t, "service", reported(res), declared(t, "end_to_end"))
	for _, c := range latencyClasses {
		if len(p.Latencies[c.name]) == 0 {
			t.Errorf("no %s latency samples", c.name)
		}
	}

	bad := smallScript(o.seed)
	bad.runs = append(bad.runs, runRequest{Scale: serviceScale, Seed: o.seed, System: "no-such-system", IssueMHz: 1000, SizeBytes: 4096})
	p, err = servicePass(ctx, o, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res := summarize([]passReport{p}); res.failed == 0 || errorRate(res) <= 0 {
		t.Fatalf("refused request: %d failed of %d, want failures", res.failed, res.attempted)
	}

	res, err = tracedService(ctx, o, smallScript(o.seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("traced service: %d of %d operations failed: %v", res.failed, res.attempted, res.failures)
	}
	sameNames(t, "traced service", reported(res), declared(t, "per_layer"))
}
