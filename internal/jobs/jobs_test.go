package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rampage/internal/metrics"
	"rampage/internal/store"
)

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// countedRequest returns a request whose Do records its invocations.
func countedRequest(key string, calls *int, mu *sync.Mutex) Request {
	return Request{
		Key:   key,
		Label: "test:" + key,
		Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			mu.Lock()
			*calls++
			mu.Unlock()
			progress(nil)
			return []byte("result-" + key), nil
		},
	}
}

func TestSubmitComputesThenServesFromCache(t *testing.T) {
	var stats metrics.ServiceStats
	var mu sync.Mutex
	calls := 0
	m := NewManager(Config{Workers: 2, QueueDepth: 8, Stats: &stats})
	defer m.Drain(waitCtx(t))

	j1, err := m.Submit(countedRequest("k1", &calls, &mu))
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Wait(waitCtx(t), j1)
	if err != nil || string(data) != "result-k1" {
		t.Fatalf("first run = (%q, %v)", data, err)
	}
	if st := j1.Status(); st.State != StateDone || st.CellsDone != 1 {
		t.Errorf("first job status = %+v", st)
	}

	// Second identical submission: a cache hit, served as an
	// already-terminal job with no new simulation.
	j2, err := m.Submit(countedRequest("k1", &calls, &mu))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("cache-hit job not immediately terminal")
	}
	data2, err := j2.Result()
	if err != nil || !bytes.Equal(data, data2) {
		t.Fatalf("cached result = (%q, %v)", data2, err)
	}
	if calls != 1 {
		t.Errorf("Do ran %d times, want 1", calls)
	}
	if stats.Get(metrics.SvcCacheHit) != 1 || stats.Get(metrics.SvcCacheMiss) != 1 || stats.Get(metrics.SvcSimRuns) != 1 {
		t.Errorf("counters = %v", stats.Snapshot())
	}
}

// TestSingleflight pins the headline concurrency guarantee: 16
// concurrent identical submissions run exactly one computation and all
// observe the same bytes.
func TestSingleflight(t *testing.T) {
	var stats metrics.ServiceStats
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	m := NewManager(Config{Workers: 4, QueueDepth: 32, Stats: &stats})
	defer m.Drain(waitCtx(t))

	req := Request{
		Key:   "shared",
		Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			<-release // hold the job in-flight until all submissions land
			progress(nil)
			return []byte("shared-result"), nil
		},
	}

	const n = 16
	jobsCh := make(chan *Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := m.Submit(req)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			jobsCh <- j
		}()
	}
	wg.Wait()
	close(release)
	close(jobsCh)

	got := 0
	for j := range jobsCh {
		data, err := m.Wait(waitCtx(t), j)
		if err != nil || string(data) != "shared-result" {
			t.Errorf("wait = (%q, %v)", data, err)
		}
		got++
	}
	if got != n {
		t.Fatalf("got %d results, want %d", got, n)
	}
	if calls != 1 {
		t.Errorf("computation ran %d times, want 1", calls)
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != 1 {
		t.Errorf("sim_runs = %d, want 1", runs)
	}
	if dedups := stats.Get(metrics.SvcCacheDedup); dedups != n-1 {
		t.Errorf("dedups = %d, want %d", dedups, n-1)
	}
}

func TestQueueFullRejects(t *testing.T) {
	var stats metrics.ServiceStats
	block := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 1, Stats: &stats})
	defer func() {
		close(block)
		m.Drain(waitCtx(t))
	}()

	blocking := func(key string) Request {
		return Request{Key: key, Cells: 1, Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return []byte(key), nil
		}}
	}
	// First job occupies the worker (poll until it leaves the queue),
	// second fills the one-deep queue, third must bounce.
	if _, err := m.Submit(blocking("a")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, _ := m.QueueDepth(); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(blocking("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(blocking("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if rej := stats.Get(metrics.SvcJobsRejected); rej != 1 {
		t.Errorf("jobs_rejected = %d, want 1", rej)
	}
}

func TestCancelRunningJob(t *testing.T) {
	var stats metrics.ServiceStats
	started := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	defer m.Drain(waitCtx(t))

	j, err := m.Submit(Request{Key: "slow", Cells: 1, Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !m.Cancel(j.ID) {
		t.Fatal("cancel refused")
	}
	if _, err := m.Wait(waitCtx(t), j); !errors.Is(err, context.Canceled) {
		t.Errorf("wait err = %v, want Canceled", err)
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
	if m.Cancel(j.ID) {
		t.Error("cancel of terminal job reported true")
	}
	if stats.Get(metrics.SvcJobsCanceled) != 1 {
		t.Errorf("jobs_canceled = %d, want 1", stats.Get(metrics.SvcJobsCanceled))
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2, JobTimeout: 20 * time.Millisecond})
	defer m.Drain(waitCtx(t))
	j, err := m.Submit(Request{Key: "stuck", Cells: 1, Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), j); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wait err = %v, want DeadlineExceeded", err)
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
}

func TestFailedJobNotCached(t *testing.T) {
	var stats metrics.ServiceStats
	var mu sync.Mutex
	calls := 0
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	defer m.Drain(waitCtx(t))

	failing := Request{Key: "flaky", Cells: 1, Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return []byte("recovered"), nil
	}}
	j1, err := m.Submit(failing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), j1); err == nil {
		t.Fatal("first attempt should fail")
	}
	if st := j1.Status(); st.State != StateFailed || st.Error == "" {
		t.Errorf("status = %+v", st)
	}
	// Failure must not poison the cache: a retry re-runs and succeeds.
	j2, err := m.Submit(failing)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := m.Wait(waitCtx(t), j2); err != nil || string(data) != "recovered" {
		t.Fatalf("retry = (%q, %v)", data, err)
	}
	if stats.Get(metrics.SvcJobsFailed) != 1 || stats.Get(metrics.SvcJobsDone) != 1 {
		t.Errorf("counters = %v", stats.Snapshot())
	}
}

func TestDrainRefusesNewWorkAndFinishesOld(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	j, err := m.Submit(countedRequest("d1", &calls, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(waitCtx(t)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Queued work finished during the drain.
	if data, err := j.Result(); err != nil || string(data) != "result-d1" {
		t.Errorf("drained job result = (%q, %v)", data, err)
	}
	if _, err := m.Submit(countedRequest("d2", &calls, &mu)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := m.Drain(waitCtx(t)); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 2})
	j, err := m.Submit(Request{Key: "stuck", Cells: 1, Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
		close(started)
		<-ctx.Done() // only cancellation releases this job
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
}

func TestGetAndFinishedRetention(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	m := NewManager(Config{Workers: 1, QueueDepth: 8, KeepFinished: 2})
	defer m.Drain(waitCtx(t))

	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		j, err := m.Submit(countedRequest(fmt.Sprintf("r%d", i), &calls, &mu))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(waitCtx(t), j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest finished job still tracked beyond KeepFinished")
	}
	for _, id := range ids[1:] {
		if _, ok := m.Get(id); !ok {
			t.Errorf("job %s fell out of retention early", id)
		}
	}
	if _, ok := m.Get("j999999"); ok {
		t.Error("unknown ID resolved")
	}
}

// TestCancelQueuedJobDuringDrain pins the shutdown ordering when a
// cancel races a drain: with the queue closed and a job still queued
// behind a running one, Cancel must take effect (the queued job ends
// canceled, never runs) and Drain must still return cleanly — the
// worker drains the closed queue, observing the pre-canceled context,
// rather than deadlocking or running canceled work. Run under -race.
func TestCancelQueuedJobDuringDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	a, err := m.Submit(Request{Key: "a", Label: "test:a", Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			close(started)
			select {
			case <-release:
				progress(nil)
				return []byte("result-a"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // a occupies the sole worker
	ranB := false
	b, err := m.Submit(Request{Key: "b", Label: "test:b", Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			ranB = true
			return []byte("result-b"), nil
		}})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(waitCtx(t)) }()
	// Wait until the drain has closed admissions, so the cancel below
	// genuinely lands while Drain is in flight.
	for {
		m.mu.Lock()
		draining := m.draining
		m.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if !m.Cancel(b.ID) {
		t.Fatal("Cancel(b) = false for a queued job mid-drain")
	}
	close(release) // let a finish; the worker then drains b

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if data, err := a.Result(); err != nil || string(data) != "result-a" {
		t.Errorf("running job a = (%q, %v), want it to finish during drain", data, err)
	}
	<-b.Done()
	if st := b.Status(); st.State != StateCanceled {
		t.Errorf("queued job b state = %s, want canceled", st.State)
	}
	if _, err := b.Result(); !errors.Is(err, context.Canceled) {
		t.Errorf("b result err = %v, want context.Canceled", err)
	}
	if ranB {
		t.Error("canceled queued job b still executed its Do")
	}
}

// TestManagerDiskIntegration pins the lookup chain: a result computed
// once is written through to disk; after the in-memory cache is gone
// (fresh manager, same disk), the disk answers and the job never
// re-runs.
func TestManagerDiskIntegration(t *testing.T) {
	dir := t.TempDir()
	stats := &metrics.ServiceStats{}
	disk, err := store.OpenDisk(dir, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	req := Request{
		Key:   "cell-1",
		Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			runs++
			progress(nil)
			return []byte("result-bytes"), nil
		},
	}

	m1 := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: stats, Disk: disk})
	j, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m1.Wait(context.Background(), j)
	if err != nil || !bytes.Equal(data, []byte("result-bytes")) {
		t.Fatalf("Wait = %q, %v", data, err)
	}
	drain(t, m1)
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	if _, ok := disk.Get("cell-1"); !ok {
		t.Fatal("result not written through to disk")
	}

	// Fresh manager, same disk: Lookup hits disk, promotes to memory,
	// and Submit never executes.
	disk2, err := store.OpenDisk(dir, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Workers: 1, QueueDepth: 4, Stats: stats, Disk: disk2})
	got, ok := m2.Lookup("cell-1")
	if !ok || !bytes.Equal(got, []byte("result-bytes")) {
		t.Fatalf("Lookup after restart = %q, %v", got, ok)
	}
	j2, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := m2.Wait(context.Background(), j2); err != nil || !bytes.Equal(data, []byte("result-bytes")) {
		t.Fatalf("Wait after restart = %q, %v", data, err)
	}
	drain(t, m2)
	if runs != 1 {
		t.Errorf("runs = %d after restart, want 1 (disk hit should skip execution)", runs)
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
