package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rampage/internal/harness"
)

// docSpec names one experiment document a sweep workload regenerates.
type docSpec struct {
	id string
	// rates restricts the experiment's issue-rate grid (nil = its own).
	rates []uint64
}

var (
	fastpathDocs = []docSpec{{id: "fig2"}, {id: "fig4"}}
	switchDocs   = []docSpec{{id: "table4", rates: []uint64{4000}}}
)

// goldenSeed is the seed the committed goldens were generated with.
const goldenSeed = 42

// sweepConfig is the harness configuration of a sweep workload.
func sweepConfig(o options) (harness.Config, error) {
	cfg, err := harness.ConfigForScale(o.scale)
	if err != nil {
		return harness.Config{}, err
	}
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	return cfg, nil
}

// warmWorkload performs the set-up a process pays before its first
// sweep: generating the workload's reference streams and capturing them
// into the harness's workload cache. A one-cell sweep capped at one
// reference triggers the capture without simulating anything.
func warmWorkload(ctx context.Context, cfg harness.Config) (time.Duration, error) {
	c := cfg
	c.MaxRefs = 1
	start := time.Now()
	_, err := harness.SweepSpec(ctx, c, harness.RunSpec{System: harness.RAMpage}, []uint64{1000}, []uint64{4096})
	return time.Since(start), err
}

// regenerated is one pass over a sweep workload's documents.
type regenerated struct {
	wall    time.Duration
	docs    []harness.ExperimentDoc
	bodies  [][]byte // WriteJSON renderings, aligned with docs
	encode  time.Duration
	simRefs uint64 // application plus OS references simulated
}

// regenerate builds every document of the workload the way
// rampage-bench -format json does.
func regenerate(ctx context.Context, cfg harness.Config, docs []docSpec) (regenerated, error) {
	var g regenerated
	start := time.Now()
	for _, d := range docs {
		doc, err := harness.BuildExperimentDoc(ctx, cfg, d.id, d.rates, nil)
		if err != nil {
			return g, fmt.Errorf("%s: %w", d.id, err)
		}
		var buf bytes.Buffer
		encStart := time.Now()
		if err := harness.WriteJSON(&buf, doc); err != nil {
			return g, fmt.Errorf("%s: %w", d.id, err)
		}
		g.encode += time.Since(encStart)
		g.docs = append(g.docs, doc)
		g.bodies = append(g.bodies, buf.Bytes())
	}
	g.wall = time.Since(start)
	for _, doc := range g.docs {
		for _, grid := range doc.Systems {
			for _, row := range grid.Rows {
				for _, c := range row {
					g.simRefs += c.BenchRefs + c.OSTLBRefs + c.OSFaultRefs + c.OSSwitchRefs
				}
			}
		}
	}
	return g, nil
}

// sweepPass is one measured pass of a sweep workload: set-up, then one
// regeneration of every document, checked against the goldens at the
// golden seed and against per-cell invariants at every seed.
func sweepPass(ctx context.Context, o options, docs []docSpec) (passReport, error) {
	cfg, err := sweepConfig(o)
	if err != nil {
		return passReport{}, err
	}
	want, err := goldenDocs(o, docs)
	if err != nil {
		return passReport{}, err
	}
	setup, err := warmWorkload(ctx, cfg)
	if err != nil {
		return passReport{}, fmt.Errorf("set-up: %w", err)
	}
	g, err := regenerate(ctx, cfg, docs)
	if err != nil {
		return passReport{}, err
	}
	var res result
	checkDocs(&res, docs, g, want)
	return passReport{
		Setup:     setup.Seconds(),
		Wall:      g.wall.Seconds(),
		SimRefs:   g.simRefs,
		RSS:       maxRSSMB(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Failures:  res.failures,
		Digest:    digest(g.bodies),
	}, nil
}

// digest hashes a list of documents.
func digest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d\n", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDocs returns the expected bytes of each document when the
// workload runs at the golden seed, or nil when no golden applies (the
// benchmark then requires every pass to repeat the first).
func goldenDocs(o options, docs []docSpec) ([][]byte, error) {
	if o.seed != goldenSeed || o.goldenDir == "" {
		return nil, nil
	}
	out := make([][]byte, len(docs))
	for i, d := range docs {
		data, err := os.ReadFile(filepath.Join(o.goldenDir, d.id+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		if d.rates != nil {
			if data, err = restrictRates(data, d.rates); err != nil {
				return nil, fmt.Errorf("golden %s: %w", d.id, err)
			}
		}
		out[i] = data
	}
	return out, nil
}

// restrictRates cuts a golden experiment document down to the given
// issue-rate rows, in the byte layout harness.WriteJSON gives the
// restricted document.
func restrictRates(data []byte, rates []uint64) ([]byte, error) {
	var doc harness.ExperimentDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	var idx []int
	for _, r := range rates {
		found := false
		for i, have := range doc.RatesMHz {
			if have == r {
				idx = append(idx, i)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no %d MHz row", r)
		}
	}
	doc.RatesMHz = rates
	for s := range doc.Systems {
		rows := make([][]harness.ReportJSON, len(idx))
		for k, i := range idx {
			rows[k] = doc.Systems[s].Rows[i]
		}
		doc.Systems[s].Rows = rows
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkDocs counts one operation per simulated cell and fails every
// cell that breaks a structural invariant or differs from want (when
// want is non-nil).
func checkDocs(res *result, docs []docSpec, g regenerated, want [][]byte) {
	var benchRefs uint64
	for i, doc := range g.docs {
		before := res.failed
		var wantDoc *harness.ExperimentDoc
		if want != nil && !bytes.Equal(g.bodies[i], want[i]) {
			wantDoc = new(harness.ExperimentDoc)
			if err := json.Unmarshal(want[i], wantDoc); err != nil {
				res.attempted++
				res.fail("%s: expected document does not decode: %v", docs[i].id, err)
				continue
			}
			if err := sameShape(doc, *wantDoc); err != nil {
				res.attempted++
				res.fail("%s: %v", docs[i].id, err)
				continue
			}
		}
		sh, err := harness.ShapeOf(docs[i].id, docs[i].rates, nil)
		if err != nil {
			res.attempted++
			res.fail("%s: %v", docs[i].id, err)
			continue
		}
		specs := sh.CellSpecs()
		k := 0
		for s, grid := range doc.Systems {
			for r, row := range grid.Rows {
				for c, cell := range row {
					res.attempted++
					if k >= len(specs) {
						res.fail("%s: more cells than the experiment shape", docs[i].id)
						continue
					}
					if err := cellInvariants(cell, specs[k], grid.System); err != nil {
						res.fail("%s cell %d: %v", docs[i].id, k, err)
					} else if benchRefs != 0 && cell.BenchRefs != benchRefs {
						res.fail("%s cell %d: bench_refs %d, other cells replayed %d", docs[i].id, k, cell.BenchRefs, benchRefs)
					} else if wantDoc != nil && !sameReport(cell, wantDoc.Systems[s].Rows[r][c]) {
						res.fail("%s cell %d (%s %d MHz %d B): report differs from the expected document",
							docs[i].id, k, grid.System, specs[k].IssueMHz, specs[k].SizeBytes)
					}
					benchRefs = cell.BenchRefs
					k++
				}
			}
		}
		if wantDoc != nil && res.failed == before {
			// Every cell matched but the bytes did not: the framing differs.
			res.fail("%s: document bytes differ from the expected document outside the cells", docs[i].id)
		}
	}
}

// sameShape checks that two documents have the same grid.
func sameShape(got, want harness.ExperimentDoc) error {
	if len(got.Systems) != len(want.Systems) {
		return fmt.Errorf("%d systems, want %d", len(got.Systems), len(want.Systems))
	}
	for s := range got.Systems {
		if len(got.Systems[s].Rows) != len(want.Systems[s].Rows) {
			return fmt.Errorf("system %d: %d rows, want %d", s, len(got.Systems[s].Rows), len(want.Systems[s].Rows))
		}
		for r := range got.Systems[s].Rows {
			if len(got.Systems[s].Rows[r]) != len(want.Systems[s].Rows[r]) {
				return fmt.Errorf("system %d row %d: %d cells, want %d", s, r,
					len(got.Systems[s].Rows[r]), len(want.Systems[s].Rows[r]))
			}
		}
	}
	return nil
}

// sameReport compares two cell reports by their JSON encoding.
func sameReport(a, b harness.ReportJSON) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// cellInvariants checks what must hold for any seed: the cell is the
// simulation point its position names, and its simulated time is fully
// attributed to hierarchy levels.
func cellInvariants(c harness.ReportJSON, spec harness.RunSpec, label string) error {
	if c.Name != label {
		return fmt.Errorf("report names %q in grid %q", c.Name, label)
	}
	if c.ClockMHz != spec.IssueMHz || c.BlockBytes != spec.SizeBytes {
		return fmt.Errorf("report is %d MHz / %d B, want %d MHz / %d B", c.ClockMHz, c.BlockBytes, spec.IssueMHz, spec.SizeBytes)
	}
	var sum uint64
	for _, v := range c.LevelCycles {
		sum += v
	}
	if c.Cycles == 0 || sum != c.Cycles || c.BenchRefs == 0 {
		return fmt.Errorf("cycles %d, level cycles sum %d, bench refs %d", c.Cycles, sum, c.BenchRefs)
	}
	return nil
}
