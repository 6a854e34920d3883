package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"rampage/internal/harness"
)

// CellsFor expands an experiment into its wire cells: the grid's run
// specs, each content-addressed by harness.RunKey over the canonical
// configuration. ErrNotWireable marks configurations that cannot be
// distributed (custom profile sets) — callers fall back to local
// execution.
func CellsFor(cfg harness.Config, id string, rates, sizes []uint64) (harness.ExperimentShape, []CellSpec, error) {
	wc, ok := harness.NewWireConfig(cfg)
	if !ok {
		return harness.ExperimentShape{}, nil, ErrNotWireable
	}
	sh, err := harness.ShapeOf(id, rates, sizes)
	if err != nil {
		return harness.ExperimentShape{}, nil, err
	}
	canonical := wc.Config()
	specs := sh.CellSpecs()
	cells := make([]CellSpec, len(specs))
	for i, spec := range specs {
		cells[i] = CellSpec{Key: harness.RunKey(canonical, spec), Config: wc, Spec: spec}
	}
	return sh, cells, nil
}

// BuildExperimentDoc assembles one experiment document through the
// fleet: expand the grid to content-addressed cells, Execute them
// (disk hits, worker leases, local fallback), then hand the per-cell
// ReportJSON payloads to the same ExperimentShape.Doc the harness's
// BuildExperimentDoc uses — so the bytes match, which the equivalence
// tests pin. progress (may be nil) is called once per
// resolved cell with the cell's canonical index (CellSpecs order) and
// its compact ReportJSON payload, so callers can stream cells live.
func (c *Coordinator) BuildExperimentDoc(ctx context.Context, cfg harness.Config, id string, rates, sizes []uint64, progress func(i int, report json.RawMessage)) ([]byte, error) {
	sh, cells, err := CellsFor(cfg, id, rates, sizes)
	if err != nil {
		return nil, err
	}
	raws, err := c.Execute(ctx, cells, progress)
	if err != nil {
		return nil, err
	}
	reports := make([]harness.ReportJSON, len(raws))
	for i, raw := range raws {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reports[i]); err != nil {
			return nil, fmt.Errorf("fleet: cell %s returned malformed report: %w", shortKey(cells[i].Key), err)
		}
	}
	doc, err := sh.Doc(reports)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
