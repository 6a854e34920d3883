package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/metrics"
	"rampage/internal/server"
)

// serviceScale is the harness scale every service request names.
const serviceScale = "quick"

// runRequest is the POST /v1/runs body.
type runRequest struct {
	Scale       string `json:"scale"`
	Seed        uint64 `json:"seed"`
	System      string `json:"system"`
	IssueMHz    uint64 `json:"issue_mhz"`
	SizeBytes   uint64 `json:"size_bytes"`
	SwitchTrace bool   `json:"switch_trace,omitempty"`
	Policy      string `json:"policy,omitempty"`
}

// experimentJob is one streamed experiment job of the script.
type experimentJob struct {
	id    string
	sizes []uint64
}

// serviceScript is the fixed request script one client runs per
// iteration.
type serviceScript struct {
	seed   uint64
	runs   []runRequest
	jobs   []experimentJob
	cached int // how many times every run is requested again from the cache
}

// newServiceScript builds the script for a seed: cold runs of 4 systems
// × 3 issue rates × 4 sizes plus RAMpage under each non-clock policy
// (96 distinct keys), every run requested again 11 times from the
// cache (1056 cached requests), and 10 fig2/fig4 experiment jobs read
// over SSE. Half their cells are complete in the checkpoint store after
// the cold runs (sizes 128, 512, 1024 and 4096 at 200 and 1000 MHz), so
// the jobs mix checkpoint restores with fresh simulation.
func newServiceScript(seed uint64) serviceScript {
	s := serviceScript{seed: seed, cached: 11}
	rates := []uint64{200, 1000, 4000}
	sizes := []uint64{128, 512, 1024, 4096}
	add := func(system, pol string, switchTrace bool) {
		for _, r := range rates {
			for _, z := range sizes {
				s.runs = append(s.runs, runRequest{Scale: serviceScale, Seed: seed, System: system,
					IssueMHz: r, SizeBytes: z, SwitchTrace: switchTrace, Policy: pol})
			}
		}
	}
	add("baseline", "", false)
	add("2way", "", false)
	add("rampage", "", false)
	add("rampage-cs", "", true)
	for _, pol := range []string{"fifo", "random", "awrp", "bandwidth"} {
		add("rampage", pol, false)
	}
	for _, id := range []string{"fig2", "fig4"} {
		for _, sz := range [][]uint64{{128, 512}, {1024, 4096}, {256, 2048}, {128, 4096}, {512, 2048}} {
			s.jobs = append(s.jobs, experimentJob{id: id, sizes: sz})
		}
	}
	return s
}

// specs returns the run specs of the script's cold runs.
func (s serviceScript) specs() ([]harness.RunSpec, error) {
	out := make([]harness.RunSpec, len(s.runs))
	for i, r := range s.runs {
		sys, err := harness.ParseSystemKind(r.System)
		if err != nil {
			return nil, err
		}
		out[i] = harness.RunSpec{System: sys, IssueMHz: r.IssueMHz, SizeBytes: r.SizeBytes,
			SwitchTrace: r.SwitchTrace, Policy: r.Policy}
	}
	return out, nil
}

// instance is a running in-process server on loopback.
type instance struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(dir string, stats *metrics.ServiceStats, workers int) (*instance, error) {
	srv, err := server.New(server.Config{
		Workers:       workers,
		QueueDepth:    64,
		SweepParallel: workers,
		DiskDir:       dir,
		Stats:         stats,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Drain(drainCtx)
		return nil, err
	}
	in := &instance{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// stop closes the listener and connections, then drains the job
// manager, and waits for the serve goroutine to return.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if derr := in.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// warmService performs the set-up a service process pays before its
// first request: capturing the quick-scale workload the experiment
// jobs replay, and building a server that answers its health check.
func warmService(ctx context.Context, o options, client *http.Client) (time.Duration, error) {
	cfg, err := harness.ConfigForScale(serviceScale)
	if err != nil {
		return 0, err
	}
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	dir, err := os.MkdirTemp(o.scratch, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	if _, err := warmWorkload(ctx, cfg); err != nil {
		return 0, err
	}
	in, err := startServer(dir, &metrics.ServiceStats{}, o.workers)
	if err != nil {
		return 0, err
	}
	code, _, _, err := do(ctx, client, http.MethodGet, in.url+"/healthz", nil)
	d := time.Since(start)
	if serr := in.stop(); err == nil {
		err = serr
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", code)
	}
	return d, err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// do sends one request and reads the whole response.
func do(ctx context.Context, c *http.Client, method, url string, body any) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Since(start), err
}

// latencyClasses are the service's request classes, each with the
// percentiles reported for it: the median and the highest percentile
// with at least ten samples beyond it over a run's passes.
var latencyClasses = []struct {
	name      string
	quantiles []float64
}{
	{"cold", []float64{0.5, 0.9}},
	{"cached", []float64{0.5, 0.99}},
	{"disk_hit", []float64{0.5, 0.9}},
	{"stream_first_event", []float64{0.5}},
	{"stream_done", []float64{0.5}},
}

// servicePass is one measured pass of the service workload: set-up,
// then one run of the script against a fresh server and store.
func servicePass(ctx context.Context, o options, script serviceScript) (passReport, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	setup, err := warmService(ctx, o, client)
	if err != nil {
		return passReport{}, fmt.Errorf("set-up: %w", err)
	}
	var res result
	it, err := serviceIteration(ctx, o, client, script, &res)
	if err != nil {
		return passReport{}, err
	}
	return passReport{
		Setup:     setup.Seconds(),
		Wall:      it.wall.Seconds(),
		SimRefs:   it.simRefs,
		RSS:       maxRSSMB(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Failures:  res.failures,
		Digest:    digest(append(append([][]byte(nil), it.runDocs...), it.expDocs...)),
		Latencies: map[string][]float64{
			"cold":               durationsMS(it.cold),
			"cached":             durationsMS(it.cached),
			"disk_hit":           durationsMS(it.diskHit),
			"stream_first_event": durationsMS(it.firstEvent),
			"stream_done":        durationsMS(it.done),
		},
	}, nil
}

// iterationOutput is what one run of the script measured and produced.
type iterationOutput struct {
	wall    time.Duration
	simRefs uint64 // application plus OS references of the cold runs
	// Latencies by request class.
	cold, cached, diskHit, firstEvent, done []time.Duration
	stats                                   *metrics.ServiceStats
	runDocs, expDocs                        [][]byte
	streamed, events                        int
}

// serviceIteration runs the script once against a fresh server and
// disk store: cold runs, cached repeats, streamed experiment jobs, then
// a drain and restart on the same store with every key requested again.
// Every request is one operation; a transport error, a non-2xx status
// or a body that differs from the first answer for its key fails it.
func serviceIteration(ctx context.Context, o options, client *http.Client, script serviceScript, res *result) (iterationOutput, error) {
	out := iterationOutput{stats: &metrics.ServiceStats{}}
	dir, err := os.MkdirTemp(o.scratch, "store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	in, err := startServer(dir, out.stats, o.workers)
	if err != nil {
		return out, err
	}
	stopped := false
	defer func() {
		if !stopped {
			in.stop()
		}
	}()

	// request sends one operation. With repeat set, the body must equal
	// first, the answer the key got earlier in the iteration.
	request := func(what, method, path string, body any, repeat bool, first []byte) ([]byte, time.Duration, bool) {
		res.attempted++
		if repeat && first == nil {
			res.fail("%s: the key has no earlier answer to repeat", what)
			return nil, 0, false
		}
		code, data, d, err := do(ctx, client, method, in.url+path, body)
		switch {
		case err != nil:
			res.fail("%s: %v", what, err)
		case code != http.StatusOK:
			res.fail("%s: status %d: %s", what, code, strings.TrimSpace(string(data)))
		case repeat && !bytes.Equal(data, first):
			res.fail("%s: body differs from the key's earlier answer", what)
		default:
			return data, d, true
		}
		return nil, 0, false
	}
	experimentPath := func(j experimentJob) string {
		return fmt.Sprintf("/v1/experiments/%s?scale=%s&seed=%d&sizes=%s", j.id, serviceScale, script.seed, joinSizes(j.sizes))
	}

	start := time.Now()
	out.runDocs = make([][]byte, len(script.runs))
	for i, r := range script.runs {
		body, d, ok := request(fmt.Sprintf("cold run %+v", r), http.MethodPost, "/v1/runs", r, false, nil)
		if !ok {
			continue
		}
		var doc harness.RunDoc
		if err := json.Unmarshal(body, &doc); err != nil || doc.Kind != "run" {
			res.fail("cold run %+v: body is not a run document", r)
			continue
		}
		rep := doc.Report
		out.simRefs += rep.BenchRefs + rep.OSTLBRefs + rep.OSFaultRefs + rep.OSSwitchRefs
		out.cold = append(out.cold, d)
		out.runDocs[i] = body
	}
	for k := 0; k < script.cached; k++ {
		for i, r := range script.runs {
			if _, d, ok := request(fmt.Sprintf("cached run %+v", r), http.MethodPost, "/v1/runs", r, true, out.runDocs[i]); ok {
				out.cached = append(out.cached, d)
			}
		}
	}
	out.expDocs = make([][]byte, len(script.jobs))
	for i, j := range script.jobs {
		res.attempted++
		doc, first, done, events, err := streamJob(ctx, client, in.url, script.seed, j)
		if err != nil {
			res.fail("streamed %s %v: %v", j.id, j.sizes, err)
			continue
		}
		out.expDocs[i] = doc
		out.streamed++
		out.events += events
		out.firstEvent = append(out.firstEvent, first)
		out.done = append(out.done, done)
	}

	stopped = true
	if err := in.stop(); err != nil {
		return out, fmt.Errorf("drain: %w", err)
	}
	in, err = startServer(dir, out.stats, o.workers)
	if err != nil {
		return out, fmt.Errorf("restart: %w", err)
	}
	stopped = false
	for i, r := range script.runs {
		if _, d, ok := request(fmt.Sprintf("disk-hit run %+v", r), http.MethodPost, "/v1/runs", r, true, out.runDocs[i]); ok {
			out.diskHit = append(out.diskHit, d)
		}
	}
	for i, j := range script.jobs {
		what := fmt.Sprintf("disk-hit %s %v", j.id, j.sizes)
		if _, d, ok := request(what, http.MethodGet, experimentPath(j), nil, true, out.expDocs[i]); ok {
			out.diskHit = append(out.diskHit, d)
		}
	}
	stopped = true
	if err := in.stop(); err != nil {
		return out, fmt.Errorf("drain after restart: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	return out, nil
}

func joinSizes(sizes []uint64) string {
	parts := make([]string, len(sizes))
	for i, z := range sizes {
		parts[i] = fmt.Sprint(z)
	}
	return strings.Join(parts, ",")
}

// cellPayload is the cell event body the server streams.
type cellPayload struct {
	Index  int             `json:"index"`
	Report json.RawMessage `json:"report"`
}

// streamJob submits an experiment job, reads its SSE event stream to
// the terminal event, fetches the result and requires the streamed
// cells to reassemble to it byte for byte. It returns the result
// document, the times from submission to the first event and to the
// terminal event, and the number of events read.
func streamJob(ctx context.Context, client *http.Client, base string, seed uint64, j experimentJob) ([]byte, time.Duration, time.Duration, int, error) {
	body := map[string]any{"kind": "experiment", "id": j.id, "scale": serviceScale, "seed": seed, "sizes_bytes": j.sizes}
	start := time.Now()
	code, data, _, err := do(ctx, client, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if code != http.StatusAccepted {
		return nil, 0, 0, 0, fmt.Errorf("submit: status %d", code)
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("submit: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sh, err := harness.ShapeOf(j.id, nil, j.sizes)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	reports := make([]harness.ReportJSON, len(sh.CellSpecs()))
	seen := make([]bool, len(reports))
	var first, done time.Duration
	events := 0
	rd := bufio.NewReader(resp.Body)
	for {
		e, err := readSSE(rd)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("events: %w", err)
		}
		events++
		if events == 1 {
			first = time.Since(start)
		}
		if e.Terminal() {
			if e.Type != string(jobs.StateDone) {
				return nil, 0, 0, 0, fmt.Errorf("job ended %s: %s", e.Type, e.Error)
			}
			done = time.Since(start)
			break
		}
		var cell cellPayload
		if err := json.Unmarshal(e.Cell, &cell); err != nil || cell.Index < 0 || cell.Index >= len(reports) || seen[cell.Index] {
			return nil, 0, 0, 0, fmt.Errorf("bad cell event %s", e.Cell)
		}
		if err := json.Unmarshal(cell.Report, &reports[cell.Index]); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("cell %d report: %w", cell.Index, err)
		}
		seen[cell.Index] = true
	}
	for k, ok := range seen {
		if !ok {
			return nil, 0, 0, 0, fmt.Errorf("cell %d never streamed", k)
		}
	}
	code, result, _, err := do(ctx, client, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, 0, 0, fmt.Errorf("result: status %d", code)
	}
	doc, err := sh.Doc(reports)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		return nil, 0, 0, 0, err
	}
	if !bytes.Equal(buf.Bytes(), result) {
		return nil, 0, 0, 0, fmt.Errorf("streamed cells do not reassemble to the job's result")
	}
	return result, first, done, events, nil
}

// readSSE reads one Server-Sent Events frame: id, event and data lines
// ended by a blank line.
func readSSE(rd *bufio.Reader) (jobs.Event, error) {
	var e jobs.Event
	var typ string
	sawData := false
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return e, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if !sawData {
				return e, fmt.Errorf("frame without data")
			}
			if e.Type != typ {
				return e, fmt.Errorf("event line %q disagrees with data type %q", typ, e.Type)
			}
			return e, nil
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				return e, err
			}
			sawData = true
		case strings.HasPrefix(line, "id: "):
		default:
			return e, fmt.Errorf("unexpected line %q", line)
		}
	}
}

// diskProbe times DiskStore Put and Get of the workload's documents in
// a fresh store, returning mean milliseconds per operation.
func diskProbe(scratch string, docs [][]byte) (float64, float64, error) {
	dir, err := os.MkdirTemp(scratch, "diskprobe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.NewDiskStore(dir, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	var put, get time.Duration
	n := 0
	for i, doc := range docs {
		if doc == nil {
			continue
		}
		key := fmt.Sprintf("perfbench-doc-%d", i)
		start := time.Now()
		store.Put(key, doc)
		put += time.Since(start)
		start = time.Now()
		got, ok := store.Get(key)
		get += time.Since(start)
		if !ok || !bytes.Equal(got, doc) {
			return 0, 0, fmt.Errorf("disk store returned a different document for %s", key)
		}
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no documents to store")
	}
	return ms(put) / float64(n), ms(get) / float64(n), nil
}

// tracedService is the traced run of the service workload: set-up and
// one run of the script for the service counters, then the script's cold runs as
// traced cells, checked against untraced harness.Run reports.
func tracedService(ctx context.Context, o options, script serviceScript) (result, error) {
	var res result
	client := newClient()
	defer client.CloseIdleConnections()
	if _, err := warmService(ctx, o, client); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	it, err := serviceIteration(ctx, o, client, script, &res)
	if err != nil {
		return res, err
	}
	cfg, err := harness.ConfigForScale(serviceScale)
	if err != nil {
		return res, err
	}
	cfg.Seed = o.seed
	specs, err := script.specs()
	if err != nil {
		return res, err
	}
	untraced, wall, err := untracedPass(ctx, o, cfg, specs)
	if err != nil {
		return res, err
	}
	p, err := tracePass(ctx, o, cfg, [][]harness.RunSpec{specs}, false)
	if err != nil {
		return res, err
	}
	checkTraced(&res, specs, p, untraced)
	// The served documents must be the untraced reports too.
	runDocs, encode, err := encodeRunDocs(untraced)
	if err != nil {
		return res, err
	}
	for i := range runDocs {
		res.attempted++
		if !bytes.Equal(runDocs[i], it.runDocs[i]) {
			res.fail("served run %+v differs from harness.Run", script.runs[i])
		}
	}
	st := it.stats
	lookups := float64(st.Get(metrics.SvcCacheHit) + st.Get(metrics.SvcDiskHit) + st.Get(metrics.SvcCacheMiss))
	ckpts := float64(st.Get(metrics.SvcCkptHit) + st.Get(metrics.SvcCkptMiss))
	err = addLayerMetrics(&res, o, p, layerInputs{
		untracedWall:  wall,
		writeJSON:     encode,
		docs:          append(append([][]byte(nil), it.runDocs...), it.expDocs...),
		cacheHitShare: ratio(float64(st.Get(metrics.SvcCacheHit)), lookups),
		diskHitShare:  ratio(float64(st.Get(metrics.SvcDiskHit)), lookups),
		ckptHitShare:  ratio(float64(st.Get(metrics.SvcCkptHit)), ckpts),
		simRuns:       float64(st.Get(metrics.SvcSimRuns)),
		eventsPerJob:  ratio(float64(it.events), float64(it.streamed)),
	})
	return res, err
}

// untracedPass runs every spec through harness.Run with o.workers in
// flight and returns the reports in spec order plus the wall time.
func untracedPass(ctx context.Context, o options, cfg harness.Config, specs []harness.RunSpec) ([]harness.ReportJSON, time.Duration, error) {
	out := make([]harness.ReportJSON, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := harness.Run(ctx, cfg, specs[i])
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = harness.NewReportJSON(rep)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	return out, wall, errors.Join(errs...)
}

// encodeRunDocs renders one run document per report, as the service
// answers POST /v1/runs, and returns the time spent in WriteJSON.
func encodeRunDocs(reports []harness.ReportJSON) ([][]byte, time.Duration, error) {
	out := make([][]byte, len(reports))
	var total time.Duration
	for i, r := range reports {
		var buf bytes.Buffer
		doc := harness.RunDoc{Version: harness.ReportVersion, Kind: "run", Report: r}
		start := time.Now()
		if err := harness.WriteJSON(&buf, doc); err != nil {
			return nil, 0, err
		}
		total += time.Since(start)
		out[i] = buf.Bytes()
	}
	return out, total, nil
}
