package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rampage/internal/harness"
	"rampage/internal/regress"
	"rampage/internal/server"
)

// streamEvent mirrors jobs.Event on the wire.
type streamEvent struct {
	Seq   uint64          `json:"seq"`
	Type  string          `json:"type"`
	Cell  json.RawMessage `json:"cell,omitempty"`
	Error string          `json:"error,omitempty"`
}

// streamCell mirrors the server's per-cell event payload.
type streamCell struct {
	Index       int             `json:"index"`
	System      string          `json:"system"`
	SwitchTrace bool            `json:"switch_trace"`
	RateMHz     uint64          `json:"rate_mhz"`
	SizeBytes   uint64          `json:"size_bytes"`
	Report      json.RawMessage `json:"report"`
}

func terminalType(typ string) bool {
	return typ == "done" || typ == "failed" || typ == "canceled"
}

// streamNDJSON reads a job's event stream (NDJSON form) to its end and
// returns the events. The server ends the stream after the terminal
// event, so a plain read-to-EOF is the whole contract.
func streamNDJSON(t *testing.T, url string) []streamEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var e streamEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// reassemble rebuilds the experiment document from streamed cell
// events, byte-identically to what the harness serves.
func reassemble(t *testing.T, id string, rates, sizes []uint64, events []streamEvent) []byte {
	t.Helper()
	sh, err := harness.ShapeOf(id, rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sh.Systems) * len(sh.RatesMHz) * len(sh.SizesBytes)
	reports := make([]harness.ReportJSON, want)
	seen := make([]bool, want)
	for _, e := range events {
		if e.Type != "cell" {
			continue
		}
		var cell streamCell
		if err := json.Unmarshal(e.Cell, &cell); err != nil {
			t.Fatalf("bad cell payload %s: %v", e.Cell, err)
		}
		if cell.Index < 0 || cell.Index >= want {
			t.Fatalf("cell index %d out of range [0,%d)", cell.Index, want)
		}
		if seen[cell.Index] {
			t.Fatalf("cell %d streamed twice", cell.Index)
		}
		seen[cell.Index] = true
		dec := json.NewDecoder(bytes.NewReader(cell.Report))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reports[cell.Index]); err != nil {
			t.Fatalf("cell %d report: %v", cell.Index, err)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never streamed (%d events)", i, len(events))
		}
	}
	doc, err := sh.Doc(reports)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEventInvariants asserts dense sequence numbers and a single
// trailing terminal event.
func checkEventInvariants(t *testing.T, events []streamEvent, wantTerminal string) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want dense numbering from 1", i, e.Seq)
		}
		if terminalType(e.Type) != (i == len(events)-1) {
			t.Fatalf("terminal event out of place: %d/%d %+v", i, len(events), e)
		}
	}
	if last := events[len(events)-1]; last.Type != wantTerminal {
		t.Fatalf("terminal event = %+v, want %q", last, wantTerminal)
	}
}

// TestStreamedCellsReassembleDocuments is the headline streaming
// guarantee: for every experiment with a JSON form, the streamed cell
// events reassemble into a document byte-identical to the job's final
// result.
func TestStreamedCellsReassembleDocuments(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 16})
	rates := []uint64{200, 400}
	sizes := []uint64{256, 1024}
	for _, id := range []string{"table3", "table4", "table5", "fig2", "fig3", "fig4", "policies"} {
		t.Run(id, func(t *testing.T) {
			body := fmt.Sprintf(`{"kind":"experiment","id":%q,"scale":"tiny","rates_mhz":[200,400],"sizes_bytes":[256,1024]}`, id)
			code, resp, _ := post(t, ts.URL+"/v1/jobs", body)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %s", code, resp)
			}
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &st); err != nil {
				t.Fatal(err)
			}
			events := streamNDJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
			checkEventInvariants(t, events, "done")

			rebuilt := reassemble(t, id, rates, sizes, events)
			code, final, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
			if code != http.StatusOK {
				t.Fatalf("result: %d %s", code, final)
			}
			if !bytes.Equal(rebuilt, final) {
				t.Fatalf("%s: reassembled stream differs from final document (%d vs %d bytes)", id, len(rebuilt), len(final))
			}
		})
	}
}

// TestStreamSSEFrames checks the Server-Sent Events rendering: content
// type, id/event/data frame structure, and agreement with the NDJSON
// events.
func TestStreamSSEFrames(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	body := `{"kind":"experiment","id":"table5","scale":"tiny","rates_mhz":[200],"sizes_bytes":[256,1024]}`
	code, resp, _ := post(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if ct := hresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSuffix(string(raw), "\n\n"), "\n\n")
	var events []streamEvent
	for _, frame := range frames {
		lines := strings.Split(frame, "\n")
		if len(lines) != 3 {
			t.Fatalf("frame %q: want id/event/data lines", frame)
		}
		if !strings.HasPrefix(lines[0], "id: ") || !strings.HasPrefix(lines[1], "event: ") || !strings.HasPrefix(lines[2], "data: ") {
			t.Fatalf("frame %q: malformed lines", frame)
		}
		var e streamEvent
		if err := json.Unmarshal([]byte(lines[2][len("data: "):]), &e); err != nil {
			t.Fatalf("frame data: %v", err)
		}
		if fmt.Sprintf("id: %d", e.Seq) != lines[0] || "event: "+e.Type != lines[1] {
			t.Fatalf("frame %q disagrees with its payload %+v", frame, e)
		}
		events = append(events, e)
	}
	checkEventInvariants(t, events, "done")
	// 1 system x 1 rate x 2 sizes + terminal.
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
}

// TestStreamResumeCursor checks both resume channels (?from= and
// Last-Event-ID) replay exactly the events past the cursor.
func TestStreamResumeCursor(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	id := runTinyTable5Job(t, ts.URL)
	full := streamNDJSON(t, ts.URL+"/v1/jobs/"+id+"/events")
	checkEventInvariants(t, full, "done")
	if len(full) < 2 {
		t.Fatalf("need at least 2 events, got %d", len(full))
	}

	cursor := full[len(full)-2].Seq
	resumed := streamNDJSON(t, fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, cursor))
	if len(resumed) != 1 || !reflect.DeepEqual(resumed[0], full[len(full)-1]) {
		t.Fatalf("?from=%d resumed %+v, want just the terminal event", cursor, resumed)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(cursor))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("Last-Event-ID resume returned %d events, want 1", len(lines))
	}

	// A cursor past the end of a finished stream yields no events.
	past := streamNDJSON(t, fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, id, full[len(full)-1].Seq))
	if len(past) != 0 {
		t.Fatalf("past-the-end cursor returned %+v", past)
	}
}

// runTinyTable5Job submits a small table5 job and waits for it.
func runTinyTable5Job(t *testing.T, base string) string {
	t.Helper()
	code, resp, _ := post(t, base+"/v1/jobs", `{"kind":"experiment","id":"table5","scale":"tiny","rates_mhz":[200],"sizes_bytes":[256,1024]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, _ := get(t, base+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var js struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		if js.State == "done" {
			return st.ID
		}
		if js.State == "failed" || js.State == "canceled" {
			t.Fatalf("job ended %s", js.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamBadCursorAndUnknownJob pins the error paths: malformed
// resume cursors are 400 (not a silent replay from zero), unknown jobs
// 404.
func TestStreamBadCursorAndUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	id := runTinyTable5Job(t, ts.URL)
	for _, cursor := range []string{"abc", "-1", "1.5", "0x10"} {
		code, body, _ := get(t, ts.URL+"/v1/jobs/"+id+"/events?from="+cursor)
		if code != http.StatusBadRequest {
			t.Errorf("?from=%s: %d %s, want 400", cursor, code, body)
		}
	}
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: %d, want 400", resp.StatusCode)
	}
	code, _, _ := get(t, ts.URL+"/v1/jobs/nosuch/events")
	if code != http.StatusNotFound {
		t.Errorf("unknown job stream: %d, want 404", code)
	}
}

// TestStreamCancelMidStream opens a stream on a long-running job,
// cancels the job, and requires the stream to end promptly with a
// canceled terminal event — the live half of the drain story.
func TestStreamCancelMidStream(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, resp, _ := post(t, ts.URL+"/v1/jobs", `{"kind":"run","scale":"slow","system":"rampage","issue_mhz":1000,"size_bytes":4096}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}

	type streamResult struct {
		events []streamEvent
		err    error
	}
	results := make(chan streamResult, 1)
	go func() {
		hresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			results <- streamResult{nil, err}
			return
		}
		defer hresp.Body.Close()
		var events []streamEvent
		sc := bufio.NewScanner(hresp.Body)
		for sc.Scan() {
			var e streamEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				results <- streamResult{nil, err}
				return
			}
			events = append(events, e)
		}
		results <- streamResult{events, sc.Err()}
	}()

	// Give the subscriber a moment to attach, then cancel the job.
	time.Sleep(100 * time.Millisecond)
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}

	select {
	case r := <-results:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.events) == 0 || r.events[len(r.events)-1].Type != "canceled" {
			t.Fatalf("stream events = %+v, want a canceled terminal event", r.events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream never ended after cancel")
	}
}

// TestStreamDrainMidStream starts a server drain while a subscriber is
// attached to a running job: the drain hard-cancels the job (expired
// drain context) and the subscriber sees a terminal event instead of a
// hung stream.
func TestStreamDrainMidStream(t *testing.T) {
	cfg := server.Config{Workers: 1, QueueDepth: 4, Scales: testScales()}
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, resp, _ := post(t, ts.URL+"/v1/jobs", `{"kind":"run","scale":"slow","system":"rampage","issue_mhz":1000,"size_bytes":4096}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}

	type streamOutcome struct {
		events []streamEvent
		err    error
	}
	done := make(chan streamOutcome, 1)
	go func() {
		hresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			done <- streamOutcome{nil, err}
			return
		}
		defer hresp.Body.Close()
		var events []streamEvent
		sc := bufio.NewScanner(hresp.Body)
		for sc.Scan() {
			var e streamEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				done <- streamOutcome{nil, err}
				return
			}
			events = append(events, e)
		}
		done <- streamOutcome{events, sc.Err()}
	}()

	time.Sleep(100 * time.Millisecond)
	drainCtx, cancel := contextWithTimeout(200 * time.Millisecond)
	defer cancel()
	svc.Drain(drainCtx) // expires, hard-canceling the in-flight job

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.events) == 0 || !terminalType(out.events[len(out.events)-1].Type) {
			t.Fatalf("stream events = %+v, want a terminal event after drain", out.events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream never ended after drain")
	}
}

// TestStreamCacheAndDiskHitBursts checks jobs answered without running
// — from the in-memory cache, and from the persistent disk store after
// a restart — still serve streaming subscribers a complete synthesized
// burst that reassembles byte-identically.
func TestStreamCacheAndDiskHitBursts(t *testing.T) {
	diskDir := t.TempDir()
	rates := []uint64{200, 400}
	sizes := []uint64{256, 1024}
	body := `{"kind":"experiment","id":"table3","scale":"tiny","rates_mhz":[200,400],"sizes_bytes":[256,1024]}`

	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, DiskDir: diskDir})
	// Populate cache and disk store.
	code, final, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=200,400&sizes=256,1024")
	if code != http.StatusOK {
		t.Fatalf("populate: %d %.200s", code, final)
	}

	// Memory cache hit: the job is terminal at submission with no live
	// events; the stream must synthesize the full burst.
	id := submitAndWaitDone(t, ts.URL, body)
	events := streamNDJSON(t, ts.URL+"/v1/jobs/"+id+"/events")
	checkEventInvariants(t, events, "done")
	if rebuilt := reassemble(t, "table3", rates, sizes, events); !bytes.Equal(rebuilt, final) {
		t.Fatalf("cache-hit burst reassembly differs (%d vs %d bytes)", len(rebuilt), len(final))
	}

	// Restart: a fresh server over the same disk store answers from
	// disk, again with a synthesized burst.
	ts2, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, DiskDir: diskDir})
	id2 := submitAndWaitDone(t, ts2.URL, body)
	events2 := streamNDJSON(t, ts2.URL+"/v1/jobs/"+id2+"/events")
	checkEventInvariants(t, events2, "done")
	if rebuilt := reassemble(t, "table3", rates, sizes, events2); !bytes.Equal(rebuilt, final) {
		t.Fatalf("disk-hit burst reassembly differs (%d vs %d bytes)", len(rebuilt), len(final))
	}
	// The synthesized burst also honors resume cursors.
	tail := streamNDJSON(t, fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts2.URL, id2, len(events2)-1))
	if len(tail) != 1 || tail[0].Type != "done" {
		t.Fatalf("synthesized resume = %+v, want just the terminal event", tail)
	}
}

// submitAndWaitDone submits an async job and polls it to done.
func submitAndWaitDone(t *testing.T, base, body string) string {
	t.Helper()
	code, resp, _ := post(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, _ := get(t, base+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var js struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		switch js.State {
		case "done":
			return st.ID
		case "failed", "canceled":
			t.Fatalf("job ended %s", js.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompareEndpoint checks POST /v1/compare agrees exactly with the
// shared comparator the regress CLI uses, for inline documents, job
// references, and hard errors.
func TestCompareEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})
	goldenPath := filepath.Join("..", "..", "testdata", "golden", "table3.json")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	type compareResp struct {
		Equal bool     `json:"equal"`
		Diffs []string `json:"diffs"`
	}
	compare := func(body string) (int, compareResp, []byte) {
		t.Helper()
		code, raw, _ := post(t, ts.URL+"/v1/compare", body)
		var cr compareResp
		if code == http.StatusOK {
			if err := json.Unmarshal(raw, &cr); err != nil {
				t.Fatal(err)
			}
		}
		return code, cr, raw
	}

	// Self-comparison of a committed golden: equal, like the CLI gate.
	code, cr, raw := compare(fmt.Sprintf(`{"golden":%s,"candidate":%s}`, golden, golden))
	if code != http.StatusOK || !cr.Equal || len(cr.Diffs) != 0 {
		t.Fatalf("golden self-compare = %d %s", code, raw)
	}

	// A perturbed candidate: the endpoint must report exactly the diffs
	// the shared comparator (and therefore the CLI) computes.
	var doc map[string]any
	if err := json.Unmarshal(golden, &doc); err != nil {
		t.Fatal(err)
	}
	doc["title"] = "tampered"
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	wantDiffs, err := regress.CompareReportBytes(golden, tampered)
	if err != nil {
		t.Fatal(err)
	}
	code, cr, raw = compare(fmt.Sprintf(`{"golden":%s,"candidate":%s}`, golden, tampered))
	if code != http.StatusOK || cr.Equal {
		t.Fatalf("tampered compare = %d %s", code, raw)
	}
	if !reflect.DeepEqual(cr.Diffs, wantDiffs) {
		t.Fatalf("endpoint diffs %v != comparator diffs %v", cr.Diffs, wantDiffs)
	}

	// Job references: a finished job's document compared against itself
	// inline.
	id := runTinyTable5Job(t, ts.URL)
	codeR, result, _ := get(t, ts.URL+"/v1/jobs/"+id+"/result")
	if codeR != http.StatusOK {
		t.Fatalf("result: %d", codeR)
	}
	code, cr, raw = compare(fmt.Sprintf(`{"golden":%q,"candidate":%s}`, id, result))
	if code != http.StatusOK || !cr.Equal {
		t.Fatalf("job-vs-inline compare = %d %s", code, raw)
	}

	// Hard errors are 400s: unknown job, schema version mismatch,
	// malformed body.
	if code, _, raw = compare(`{"golden":"j999999","candidate":{}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown job compare = %d %s", code, raw)
	}
	doc["version"] = 999
	crossVersion, _ := json.Marshal(doc)
	if code, _, raw = compare(fmt.Sprintf(`{"golden":%s,"candidate":%s}`, golden, crossVersion)); code != http.StatusBadRequest {
		t.Fatalf("cross-version compare = %d %s", code, raw)
	}
	if code, _, raw = compare(`{"golden":`); code != http.StatusBadRequest {
		t.Fatalf("malformed compare = %d %s", code, raw)
	}
	if code, _, raw = compare(`{"candidate":{}}`); code != http.StatusBadRequest {
		t.Fatalf("missing golden compare = %d %s", code, raw)
	}
}

// TestTenantRateLimit429 checks per-tenant admission over HTTP: the
// burst passes, the next submission is 429 with a Retry-After hint,
// and an unrelated tenant is unaffected.
func TestTenantRateLimit429(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{
		Workers: 2, QueueDepth: 16,
		TenantRate: 1e-9, TenantBurst: 1,
	})
	submit := func(tenant string, seed int) (int, []byte, http.Header) {
		t.Helper()
		body := fmt.Sprintf(`{"kind":"run","scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":4096,"seed":%d}`, seed)
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, resp.Header
	}

	if code, body, _ := submit("alice", 1); code != http.StatusAccepted {
		t.Fatalf("first alice submit: %d %s", code, body)
	}
	code, body, hdr := submit("alice", 2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second alice submit: %d %s, want 429", code, body)
	}
	if !strings.Contains(string(body), "rate limited") {
		t.Errorf("429 body %s does not mention rate limiting", body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	if code, body, _ := submit("bob", 3); code != http.StatusAccepted {
		t.Fatalf("bob submit: %d %s (another tenant's bucket leaked?)", code, body)
	}
}

// TestMetricszPrometheus checks the default /metricsz rendering is
// valid text exposition format: correct content type, a HELP and TYPE
// header for every sampled family, counters suffixed _total, and the
// per-tenant and per-policy labeled families present.
func TestMetricszPrometheus(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	// Drive one tenant-attributed request so labeled samples exist.
	code, body, _ := get(t, ts.URL+"/v1/experiments/table5?scale=tiny&rates=200&sizes=256&tenant=alice")
	if code != http.StatusOK {
		t.Fatalf("experiment: %d %s", code, body)
	}

	code, raw, hdr := get(t, ts.URL+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}

	typed := map[string]string{} // family -> counter|gauge
	helped := map[string]bool{}
	samples := map[string]string{} // full sample key -> value
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || parts[3] == "" {
				t.Fatalf("bad HELP line %q", line)
			}
			helped[parts[2]] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unrecognized comment line %q", line)
		default:
			idx := strings.LastIndexByte(line, ' ')
			if idx < 0 {
				t.Fatalf("bad sample line %q", line)
			}
			key, value := line[:idx], line[idx+1:]
			family := key
			if b := strings.IndexByte(key, '{'); b >= 0 {
				family = key[:b]
				if !strings.HasSuffix(key, "}") {
					t.Fatalf("unterminated labels in %q", line)
				}
			}
			kind, ok := typed[family]
			if !ok || !helped[family] {
				t.Fatalf("sample %q missing TYPE/HELP headers", line)
			}
			if kind == "counter" && !strings.HasSuffix(family, "_total") {
				t.Errorf("counter family %q not suffixed _total", family)
			}
			if value == "" {
				t.Fatalf("empty value in %q", line)
			}
			samples[key] = value
		}
	}
	for _, want := range []string{
		"rampage_jobs_accepted_total",
		"rampage_sim_runs_total",
		"rampage_queue_length",
		"rampage_queue_capacity",
		"rampage_cache_entries",
		"rampage_fleet_workers",
		`rampage_tenant_jobs_accepted_total{tenant="alice"}`,
		`rampage_tenant_jobs_done_total{tenant="alice"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("sample %q missing from exposition (have %d samples)", want, len(samples))
		}
	}
	if got := samples[`rampage_tenant_jobs_accepted_total{tenant="alice"}`]; got != "1" {
		t.Errorf(`alice accepted = %s, want 1`, got)
	}
}

// TestStreamTable3GoldenScaleE2E streams the full default-scale table3
// job and requires the reassembled document to be byte-identical to
// the committed golden. Full sweep (~a minute): skipped under -short,
// run by the CI streaming job.
func TestStreamTable3GoldenScaleE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweep; run without -short (CI streaming job)")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "table3.json"))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.New(server.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTimeout(time.Minute)
		defer cancel()
		svc.Drain(drainCtx)
	})

	code, resp, _ := post(t, ts.URL+"/v1/jobs", `{"kind":"experiment","id":"table3","scale":"default"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, resp)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	events := streamNDJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	checkEventInvariants(t, events, "done")
	rebuilt := reassemble(t, "table3", nil, nil, events)
	if !bytes.Equal(rebuilt, golden) {
		t.Fatalf("streamed table3 differs from the committed golden (%d vs %d bytes)", len(rebuilt), len(golden))
	}
}

// TestCompareRefusesOversizedBody pins the compare endpoint's body
// bound: a valid self-comparison padded past 1 MiB of leading
// whitespace is refused, while the same request unpadded is served.
func TestCompareRefusesOversizedBody(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"golden":%s,"candidate":%s}`, golden, golden)
	if code, raw, _ := post(t, ts.URL+"/v1/compare", body); code != http.StatusOK {
		t.Fatalf("unpadded compare = %d %s", code, raw)
	}
	code, raw, _ := post(t, ts.URL+"/v1/compare", strings.Repeat(" ", 1<<20+1)+body)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "too large") {
		t.Errorf("oversized compare = %d %s, want 400 naming the size limit", code, raw)
	}
}
