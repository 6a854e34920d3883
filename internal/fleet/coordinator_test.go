package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rampage/internal/harness"
	"rampage/internal/metrics"
	"rampage/internal/store"
)

// fakeCells fabricates wire cells with distinct content addresses; the
// coordinator's dispatch logic never looks inside Config/Spec.
func fakeCells(n int) []CellSpec {
	cells := make([]CellSpec, n)
	for i := range cells {
		cells[i] = CellSpec{Key: fmt.Sprintf("cell-%03d", i)}
	}
	return cells
}

func testCoordinator(t *testing.T, mutate func(*CoordinatorConfig)) (*Coordinator, *metrics.ServiceStats) {
	t.Helper()
	stats := &metrics.ServiceStats{}
	cfg := CoordinatorConfig{
		LeaseTTL:     200 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
		Stats:        stats,
		Local: func(ctx context.Context, cell CellSpec) ([]byte, error) {
			return []byte("local:" + cell.Key), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewCoordinator(cfg), stats
}

func register(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.Register(RegisterRequest{Version: ProtoVersion, Name: name, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return resp.WorkerID
}

// execAsync starts Execute in the background and returns its results.
func execAsync(c *Coordinator, cells []CellSpec) (chan []json.RawMessage, chan error) {
	resCh := make(chan []json.RawMessage, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.Execute(context.Background(), cells, nil)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// leaseAll polls until the worker has leased want cells (Execute
// enqueues asynchronously from the test's perspective).
func leaseAll(t *testing.T, c *Coordinator, workerID string, want int) []CellSpec {
	t.Helper()
	var got []CellSpec
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		if time.Now().After(deadline) {
			t.Fatalf("leased %d cells, want %d", len(got), want)
		}
		resp, err := c.Lease(LeaseRequest{WorkerID: workerID, Max: want - len(got)})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Cells...)
		if len(resp.Cells) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return got
}

func TestCoordinatorLeaseAndComplete(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	w := register(t, c, "w")
	cells := fakeCells(3)
	resCh, errCh := execAsync(c, cells)

	for _, cell := range leaseAll(t, c, w, 3) {
		err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Report: []byte("r:" + cell.Key)})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if string(res[i]) != "r:"+cell.Key {
			t.Errorf("res[%d] = %q, want %q", i, res[i], "r:"+cell.Key)
		}
	}
	if n := stats.Get(metrics.SvcFleetLeased); n != 3 {
		t.Errorf("fleet_cells_leased = %d, want 3", n)
	}
	if n := stats.Get(metrics.SvcFleetCompleted); n != 3 {
		t.Errorf("fleet_cells_completed = %d, want 3", n)
	}
	st := c.Status()
	if len(st.Workers) != 1 || st.Workers[0].CellsDone != 3 {
		t.Errorf("status workers = %+v", st.Workers)
	}
}

// TestCoordinatorDedup pins fleet-wide dedup: the same key appearing
// twice in one Execute, and again in a concurrent Execute, is one
// task, one lease, one simulation.
func TestCoordinatorDedup(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	w := register(t, c, "w")
	shared := CellSpec{Key: "shared"}
	res1, err1 := execAsync(c, []CellSpec{shared, shared})
	res2, err2 := execAsync(c, []CellSpec{shared})

	cell := leaseAll(t, c, w, 1)[0]
	if cell.Key != "shared" {
		t.Fatalf("leased %q", cell.Key)
	}
	// No second task may exist: an extra lease comes back empty.
	if resp, _ := c.Lease(LeaseRequest{WorkerID: w, Max: 10}); len(resp.Cells) != 0 {
		t.Fatalf("duplicate key produced %d extra leases", len(resp.Cells))
	}
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: "shared", Report: []byte("once")}); err != nil {
		t.Fatal(err)
	}
	r1, e1 := <-res1, <-err1
	r2, e2 := <-res2, <-err2
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	if string(r1[0]) != "once" || string(r1[1]) != "once" || string(r2[0]) != "once" {
		t.Errorf("deduped results = %q %q %q", r1[0], r1[1], r2[0])
	}
}

// TestCoordinatorRequeueOnExpiry pins dead-worker recovery: a worker
// that leases a cell and goes silent loses it at the lease deadline,
// and a live worker picks it up.
func TestCoordinatorRequeueOnExpiry(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	dead := register(t, c, "dead")
	resCh, errCh := execAsync(c, fakeCells(1))
	got := leaseAll(t, c, dead, 1)
	// The dead worker never renews. After the TTL, a freshly registered
	// worker inherits the cell.
	live := register(t, c, "live")
	time.Sleep(250 * time.Millisecond)
	inherited := leaseAll(t, c, live, 1)
	if inherited[0].Key != got[0].Key {
		t.Fatalf("inherited %q, want %q", inherited[0].Key, got[0].Key)
	}
	if n := stats.Get(metrics.SvcFleetRequeued); n < 1 {
		t.Errorf("fleet_cells_requeued = %d, want >= 1", n)
	}
	if err := c.Complete(CompleteRequest{WorkerID: live, Key: inherited[0].Key, Report: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "ok" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
}

// TestCoordinatorIdempotentComplete pins restart tolerance: completing
// a cell twice (or completing a cell the coordinator never leased) is
// accepted, and the result lands in the disk store.
func TestCoordinatorIdempotentComplete(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.Disk = disk })
	w := register(t, c, "w")
	resCh, errCh := execAsync(c, fakeCells(1))
	cell := leaseAll(t, c, w, 1)[0]
	for i := 0; i < 2; i++ {
		if err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Report: []byte("r")}); err != nil {
			t.Fatalf("complete #%d: %v", i+1, err)
		}
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "r" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
	// A cell from a pre-restart lease: unknown key, still persisted.
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: "never-leased", Report: []byte("orphan")}); err != nil {
		t.Fatal(err)
	}
	if data, ok := disk.Get("never-leased"); !ok || string(data) != "orphan" {
		t.Errorf("orphan result not persisted: %q, %v", data, ok)
	}
	// And a next Execute for that key is a pure disk hit: no lease.
	res, err := c.Execute(context.Background(), []CellSpec{{Key: "never-leased"}}, nil)
	if err != nil || string(res[0]) != "orphan" {
		t.Fatalf("disk-hit Execute = %q, %v", res, err)
	}
}

// TestCoordinatorMaxAttempts pins the poison-cell bound: a cell whose
// execution keeps failing is retried MaxAttempts times, then the
// waiting job gets the error instead of spinning forever.
func TestCoordinatorMaxAttempts(t *testing.T) {
	c, stats := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.MaxAttempts = 2 })
	w := register(t, c, "w")
	_, errCh := execAsync(c, fakeCells(1))
	for attempt := 0; attempt < 2; attempt++ {
		cell := leaseAll(t, c, w, 1)[0]
		if err := c.Complete(CompleteRequest{WorkerID: w, Key: cell.Key, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Execute error = %v", err)
	}
	if n := stats.Get(metrics.SvcFleetFailed); n != 1 {
		t.Errorf("fleet_cells_failed = %d, want 1", n)
	}
}

// TestCoordinatorDrain pins fleet drain: new Execute calls are
// refused, but cells already queued keep leasing out so in-flight jobs
// finish, and an idle worker is told to back off.
func TestCoordinatorDrain(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	w := register(t, c, "w")
	resCh, errCh := execAsync(c, fakeCells(1))
	cells := leaseAll(t, c, w, 1)

	c.Drain()
	if _, err := c.Execute(context.Background(), fakeCells(2), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Execute while draining = %v, want ErrDraining", err)
	}
	// The leased cell still completes and the pre-drain job finishes.
	if err := c.Complete(CompleteRequest{WorkerID: w, Key: cells[0].Key, Report: []byte("done")}); err != nil {
		t.Fatal(err)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != "done" {
		t.Fatalf("Execute = %q, %v", res, err)
	}
	resp, err := c.Lease(LeaseRequest{WorkerID: w, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Draining || len(resp.Cells) != 0 {
		t.Errorf("post-drain lease = %+v, want draining and empty", resp)
	}
}

// TestCoordinatorOrphanFallback pins the no-workers degradation: with
// no live worker, Execute runs cells through cfg.Local and finishes.
func TestCoordinatorOrphanFallback(t *testing.T) {
	c, stats := testCoordinator(t, nil)
	cells := fakeCells(2)
	res, err := c.Execute(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		if string(res[i]) != "local:"+cell.Key {
			t.Errorf("res[%d] = %q", i, res[i])
		}
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 2 {
		t.Errorf("fleet_cells_local = %d, want 2", n)
	}
}

func TestCoordinatorRejectsBadVersionAndUnknownWorker(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	if _, err := c.Register(RegisterRequest{Version: ProtoVersion + 1}); err == nil {
		t.Error("version mismatch accepted")
	}
	if _, err := c.Lease(LeaseRequest{WorkerID: "nope"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease from unknown worker = %v", err)
	}
	if err := c.Renew(RenewRequest{WorkerID: "nope"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("renew from unknown worker = %v", err)
	}
	if err := c.Complete(CompleteRequest{WorkerID: "nope", Key: "k", Report: []byte("r")}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("complete from unknown worker = %v", err)
	}
}

// TestCoordinatorStaleWorkerRemoved pins registry hygiene: a worker
// silent for ~1.5 lease TTLs disappears from the registry and its
// cells requeue.
func TestCoordinatorStaleWorkerRemoved(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	register(t, c, "ghost")
	if n := c.LiveWorkers(); n != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", n)
	}
	time.Sleep(350 * time.Millisecond) // > 1.5 * 200ms TTL
	if n := c.LiveWorkers(); n != 0 {
		t.Errorf("LiveWorkers = %d after silence, want 0", n)
	}
}

// TestCellsForKeysMatchRunKeys pins the content addresses the fleet
// dispatches on: they are exactly the harness run keys for the
// reconstructed canonical config, so fleet results, the result cache
// and the disk store all address the same bytes.
func TestCellsForKeysMatchRunKeys(t *testing.T) {
	cfg := harness.QuickScaled()
	cfg.RefScale = 1.0 / 10000
	sh, cells, err := CellsFor(cfg, "table3", []uint64{200}, []uint64{1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	specs := sh.CellSpecs()
	if len(cells) != len(specs) {
		t.Fatalf("%d cells, %d specs", len(cells), len(specs))
	}
	seen := make(map[string]bool)
	for i, cell := range cells {
		if cell.Spec != specs[i] {
			t.Errorf("cell %d spec mismatch", i)
		}
		if want := harness.RunKey(cell.Config.Config(), cell.Spec); cell.Key != want {
			t.Errorf("cell %d key = %s, want %s", i, cell.Key, want)
		}
		if want := harness.RunKey(cfg, cell.Spec); cell.Key != want {
			t.Errorf("cell %d key differs from original-config run key", i)
		}
		if seen[cell.Key] {
			t.Errorf("duplicate key %s", cell.Key)
		}
		seen[cell.Key] = true
	}
}

// TestRoutesRefuseOversizedBodies pins the request-body bound: a valid
// request padded past 1 MiB of leading whitespace is refused on every
// POST endpoint, while the same request unpadded is served.
func TestRoutesRefuseOversizedBodies(t *testing.T) {
	c, _ := testCoordinator(t, nil)
	cs := newCoordServer(t, c)
	postBody := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(cs.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	register := fmt.Sprintf(`{"version":%d}`, ProtoVersion)
	if code, raw := postBody("/fleet/v1/register", register); code != http.StatusOK {
		t.Fatalf("register = %d %s", code, raw)
	}
	pad := strings.Repeat(" ", maxRequestBody+1)
	for _, path := range []string{"register", "lease", "renew", "complete", "deregister"} {
		code, raw := postBody("/fleet/v1/"+path, pad+register)
		if code != http.StatusBadRequest || !strings.Contains(raw, "too large") {
			t.Errorf("oversized %s = %d %s, want 400 naming the size limit", path, code, raw)
		}
	}
}
