package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"l2bm/internal/colfmt"
	"l2bm/internal/exp"
)

const sweepBody = `{"name":"rt","specs":[
	{"Name":"p-dt","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4},
	{"Name":"p-l2bm","Policy":"L2BM","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4}]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (statusResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status statusResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
	}
	return status, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status := getStatus(t, ts, id)
		if status.State == want {
			return status
		}
		if terminal(status.State) {
			t.Fatalf("sweep %s reached %s (error %q), want %s", id, status.State, status.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %s", id, want)
	return statusResponse{}
}

// awaitSSE is await over the SSE framing.
func awaitSSE(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE events of %s: %d, %v", id, resp.StatusCode, err)
	}
	return body
}

func getBody(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestServeRoundTripByteIdentical is the service's acceptance test: the
// daemon's result for a sweep — fresh on first submission, from cache on
// the second — is byte-identical to what the CLI/-spec path (MarshalResults
// over direct runs) produces for the same specs.
func TestServeRoundTripByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})

	req, err := exp.ParseSweepRequest([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]*exp.Result, len(req.Specs))
	for i, spec := range req.Specs {
		if direct[i], err = exp.RunHybridCtx(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	want, err := exp.MarshalResults(direct)
	if err != nil {
		t.Fatal(err)
	}

	status, code := submit(t, ts, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitState(t, ts, status.ID, StateDone)
	if done.CacheHits != 0 || done.Completed != 2 {
		t.Errorf("first run: completed=%d cacheHits=%d, want 2, 0", done.Completed, done.CacheHits)
	}
	got, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("daemon result differs from direct MarshalResults:\n%.200s\n%.200s", got, want)
	}

	// Resubmit: every point must come from the cache, bytes unchanged.
	again, code := submit(t, ts, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	if again.ID == status.ID {
		t.Error("resubmission reused the first sweep's id")
	}
	done = waitState(t, ts, again.ID, StateDone)
	if done.CacheHits != 2 {
		t.Errorf("resubmission cacheHits = %d, want 2", done.CacheHits)
	}
	cachedBytes, _ := getBody(t, ts, "/v1/sweeps/"+again.ID+"/result")
	if !bytes.Equal(cachedBytes, want) {
		t.Error("cache-hit result differs from the fresh result")
	}

	// The per-point columnar artifact is a decodable colfmt file.
	art, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/trace?point=0")
	if code != http.StatusOK {
		t.Fatalf("trace: %d", code)
	}
	dec, err := colfmt.Decode(art)
	if err != nil {
		t.Fatalf("trace artifact does not decode: %v", err)
	}
	if dec.Channel(exp.ColTCPSlowdowns) == nil {
		t.Error("trace artifact missing the TCP slowdown channel")
	}
}

// TestServeStoresPointsAsTheyFinish: a point is on disk once its worker
// finishes it, not once every earlier point has — so neither a slow
// neighbour nor a failed one costs a finished point. Not skipped under
// -short: CI's -race pass drives concurrent worker-side Puts through here.
func TestServeStoresPointsAsTheyFinish(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 3})
	release := make(chan struct{})
	srv.runPoint = func(ctx context.Context, spec exp.HybridSpec) (*exp.Result, error) {
		if spec.Name == "p0" {
			select {
			case <-release:
				return nil, errors.New("point 0 failed")
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &exp.Result{Policy: spec.Policy}, nil
	}
	stored := func() int {
		n, err := srv.cache.Len()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	status, code := submit(t, ts, `{"name":"durable","specs":[
		{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.1},
		{"Name":"p1","Policy":"DT","Scale":"tiny","TCPLoad":0.2},
		{"Name":"p2","Policy":"DT","Scale":"tiny","TCPLoad":0.3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	for deadline := time.Now().Add(10 * time.Second); stored() < 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := stored(); n != 2 {
		close(release)
		t.Fatalf("%d points stored while point 0 runs, want the 2 that finished", n)
	}
	close(release)
	waitState(t, ts, status.ID, StateFailed)
	if n := stored(); n != 2 {
		t.Errorf("%d points stored after the sweep failed, want 2", n)
	}
}

// blockingServer returns a server whose points block until release is
// closed (or their context is cancelled) — the deterministic stand-in for
// long simulations in admission/cancellation tests.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	srv, ts := newTestServer(t, cfg)
	release := make(chan struct{})
	srv.runPoint = func(ctx context.Context, spec exp.HybridSpec) (*exp.Result, error) {
		select {
		case <-release:
			return &exp.Result{Policy: spec.Policy}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return srv, ts, release
}

func oneSpec(name string) string {
	return fmt.Sprintf(`{"name":%q,"specs":[{"Name":%q,"Policy":"DT","Scale":"tiny","TCPLoad":0.1}]}`, name, name)
}

// TestServeAdmissionControl: MaxConcurrent sweeps run, QueueDepth wait,
// and the next submission is refused with 429 — then the queue drains in
// FIFO order once slots free up.
func TestServeAdmissionControl(t *testing.T) {
	_, ts, release := blockingServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})

	first, code := submit(t, ts, oneSpec("a"))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitState(t, ts, first.ID, StateRunning)

	second, code := submit(t, ts, oneSpec("b"))
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	if second.State != StateQueued {
		t.Errorf("second sweep state %q, want queued", second.State)
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(oneSpec("c")))
	if err != nil {
		t.Fatal(err)
	}
	overflow, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(string(overflow), "queue full") {
		t.Errorf("429 body %q does not explain the queue", overflow)
	}
	// A refused sweep leaves no residue: its id does not resolve.
	if _, code := getBody(t, ts, "/v1/sweeps/sw-003-whatever"); code != http.StatusNotFound {
		t.Errorf("refused sweep lookup: %d, want 404", code)
	}

	close(release)
	waitState(t, ts, first.ID, StateDone)
	waitState(t, ts, second.ID, StateDone)
}

// TestServeCachedSweepAnsweredAtAdmission: with the one slot held and no
// queue (QueueDepth -1), a sweep whose every point is stored is still
// answered — 202 reading done, the same event lines a run streams for it
// and the fresh run's bytes —
// while a sweep with one point to simulate is refused as before.
func TestServeCachedSweepAnsweredAtAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1, CacheDir: t.TempDir()})
	release := make(chan struct{})
	srv.runPoint = func(ctx context.Context, spec exp.HybridSpec) (*exp.Result, error) {
		if spec.Name == "held" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return exp.RunHybridCtx(ctx, spec)
	}

	first, code := submit(t, ts, goldenBody)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit: %d", code)
	}
	await(t, ts, first.ID)
	want, code := getBody(t, ts, "/v1/sweeps/"+first.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("fresh result: %d", code)
	}

	held, _ := submit(t, ts, oneSpec("held"))
	waitState(t, ts, held.ID, StateRunning)

	again, code := submit(t, ts, goldenBody)
	if code != http.StatusAccepted {
		t.Fatalf("cached submit with the slot held: %d, want 202", code)
	}
	if again.State != StateDone || again.Completed != 3 || again.CacheHits != 3 {
		t.Errorf("cached submit answered %+v, want done with 3 of 3 points cached", again)
	}
	if got, want := string(await(t, ts, again.ID)), strings.Join(goldenCachedEvents, "\n")+"\n"; got != want {
		t.Errorf("cached NDJSON stream:\n%s\nwant:\n%s", got, want)
	}
	if got, want := string(awaitSSE(t, ts, again.ID)), "data: "+strings.Join(goldenCachedEvents, "\n\ndata: ")+"\n\n"; got != want {
		t.Errorf("cached SSE stream:\n%s\nwant:\n%s", got, want)
	}
	if got, code := getBody(t, ts, "/v1/sweeps/"+again.ID+"/result"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("cached result: %d, equal to the fresh run's: %v", code, bytes.Equal(got, want))
	}

	partial := strings.TrimSuffix(goldenBody, "]}") + `,
	{"Name":"g-new","Policy":"DT","Scale":"tiny","TCPLoad":0.3}]}`
	if _, code := submit(t, ts, partial); code != http.StatusTooManyRequests {
		t.Errorf("a sweep with one point to simulate, the slot held: %d, want 429", code)
	}
	close(release)
	await(t, ts, held.ID)
}

// TestServeCancellation: DELETE dequeues a queued sweep (it never runs) and
// interrupts a running one through its context; both end cancelled and
// refuse /result with 409.
func TestServeCancellation(t *testing.T) {
	_, ts, release := blockingServer(t, Config{MaxConcurrent: 1, QueueDepth: 2})
	defer close(release)

	running, _ := submit(t, ts, oneSpec("running"))
	waitState(t, ts, running.ID, StateRunning)
	queued, _ := submit(t, ts, oneSpec("queued"))

	del := func(id string) statusResponse {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var status statusResponse
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		return status
	}

	if status := del(queued.ID); status.State != StateCancelled {
		t.Errorf("queued sweep state after DELETE: %q", status.State)
	}
	if status := del(running.ID); status.State != StateCancelled {
		t.Errorf("running sweep state after DELETE: %q", status.State)
	}
	// The running sweep's pool unwinds via context; its state must stay
	// cancelled (not flip to failed when the pool returns ctx.Err).
	time.Sleep(50 * time.Millisecond)
	if status := getStatus(t, ts, running.ID); status.State != StateCancelled {
		t.Errorf("running sweep settled as %q, want cancelled", status.State)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+running.ID+"/result"); code != http.StatusConflict {
		t.Errorf("result of cancelled sweep: %d, want 409", code)
	}

	// The slot freed by the cancellation admits new work; the cancelled
	// queued sweep is skipped, not resurrected.
	next, _ := submit(t, ts, oneSpec("next"))
	waitState(t, ts, next.ID, StateRunning)
	if status := getStatus(t, ts, queued.ID); status.State != StateCancelled {
		t.Errorf("dequeued sweep resurrected as %q", status.State)
	}
}

// TestServeEvents: the NDJSON stream replays every progress event through
// the terminal state; SSE framing is the same lines in data: frames.
func TestServeEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _ := submit(t, ts, oneSpec("ev"))
	waitState(t, ts, status.ID, StateDone)

	body, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	var states []string
	var points int
	for _, line := range lines {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "point":
			points++
		}
	}
	want := []string{StateRunning, StateDone}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Errorf("state sequence %v, want %v", states, want)
	}
	if points != 1 {
		t.Errorf("point events %d, want 1", points)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+status.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	for _, frame := range strings.Split(strings.TrimSpace(string(sse)), "\n\n") {
		if !strings.HasPrefix(frame, "data: ") {
			t.Errorf("SSE frame %q not data-framed", frame)
		}
	}
}

// TestServeValidation: malformed and misaddressed requests get crisp JSON
// errors with the right status codes, before any simulation.
func TestServeValidation(t *testing.T) {
	_, ts, release := blockingServer(t, Config{MaxConcurrent: 1})
	defer close(release)

	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"syntax":         {`{"specs":`, http.StatusBadRequest},
		"unknown field":  {`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Polciy":"x"}]}`, http.StatusBadRequest},
		"unknown policy": {`{"specs":[{"Name":"p","Policy":"Nope","Scale":"tiny"}]}`, http.StatusBadRequest},
		"no specs":       {`{"specs":[]}`, http.StatusBadRequest},
		"shards > ToRs":  {`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny"},{"Name":"q","Policy":"DT","Scale":"tiny","Shards":5}]}`, http.StatusBadRequest},
		"hybrid faults":  {`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"hybrid","Faults":{}}]}`, http.StatusBadRequest},
		"integer scale":  {`{"specs":[{"Name":"p","Policy":"DT","Scale":1}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
		var msg struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &msg) != nil || msg.Error == "" {
			t.Errorf("%s: body %q is not an error envelope", name, body)
		}
	}

	if _, code := getBody(t, ts, "/v1/sweeps/nope"); code != http.StatusNotFound {
		t.Errorf("unknown id status: %d, want 404", code)
	}

	status, _ := submit(t, ts, oneSpec("pending"))
	if _, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/result"); code != http.StatusConflict {
		t.Errorf("result before done: %d, want 409", code)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/trace?point=7"); code != http.StatusBadRequest {
		t.Errorf("out-of-range point: %d, want 400", code)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/trace?point=0"); code != http.StatusConflict {
		t.Errorf("trace before done: %d, want 409", code)
	}

	if body, code := getBody(t, ts, "/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
}
