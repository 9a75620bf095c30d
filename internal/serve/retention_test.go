package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2bm/internal/exp"
)

// await follows a sweep's NDJSON stream to its terminal line and returns
// the stream: the event-driven way to wait (no status polling).
func await(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	body, code := getBody(t, ts, "/v1/sweeps/"+id+"/events")
	if code != http.StatusOK {
		t.Fatalf("events of %s: %d", id, code)
	}
	return body
}

func del(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	return resp.StatusCode
}

// instantPoints makes every point finish at once with a small Result, for
// tests about the daemon's bookkeeping rather than the engine.
func instantPoints(srv *Server) {
	srv.runPoint = func(_ context.Context, spec exp.HybridSpec) (*exp.Result, error) {
		return &exp.Result{Policy: spec.Policy, Events: 1}, nil
	}
}

// retention reads the server's retention ledger and checks it, and the
// body memo, against the sweeps they describe.
func retention(t *testing.T, srv *Server) (sweeps, retired, bytes int) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sum := 0
	for _, sw := range srv.retired {
		if srv.sweeps[sw.id] != sw {
			t.Errorf("retired sweep %s is not addressable", sw.id)
		}
		sum += sw.retained
	}
	if sum != srv.retainedBytes {
		t.Errorf("retainedBytes = %d, the retired sweeps' charges sum to %d", srv.retainedBytes, sum)
	}
	for body, sw := range srv.twins {
		if sw.body != body || srv.sweeps[sw.id] != sw {
			t.Errorf("the memo names sweep %s, which is not addressable or has another body", sw.id)
		}
	}
	if len(srv.twins) > len(srv.sweeps) {
		t.Errorf("the memo holds %d bodies for %d addressable sweeps", len(srv.twins), len(srv.sweeps))
	}
	return len(srv.sweeps), len(srv.retired), srv.retainedBytes
}

// TestServeRetentionEvictsOldest: after bound + k finished sweeps the k
// oldest ids are gone from every endpoint — 404, exactly like an id never
// issued — while the newest still serves result and trace bytes equal to a
// direct run, from cache hits it never decoded.
func TestServeRetentionEvictsOldest(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir()})

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

	const k = 3
	ids := make([]string, maxTerminalSweeps+k)
	for i := range ids {
		status, code := submit(t, ts, sweepBody)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = status.ID
		await(t, ts, status.ID)
	}

	unknown, _ := getBody(t, ts, "/v1/sweeps/sw-000-neverwas")
	for _, id := range ids[:k] {
		for _, path := range []string{"", "/result", "/events", "/trace?point=0"} {
			body, code := getBody(t, ts, "/v1/sweeps/"+id+path)
			if code != http.StatusNotFound {
				t.Errorf("evicted %s%s: %d, want 404", id, path, code)
			}
			if path == "" && string(body) != strings.Replace(string(unknown), "sw-000-neverwas", id, 1) {
				t.Errorf("evicted id answers %q, an unknown id %q", body, unknown)
			}
		}
		if code := del(t, ts, id); code != http.StatusNotFound {
			t.Errorf("DELETE of evicted %s: %d, want 404", id, code)
		}
	}

	for _, id := range []string{ids[k], ids[len(ids)-1]} {
		got, code := getBody(t, ts, "/v1/sweeps/"+id+"/result")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("retained %s: result %d, equal to the direct run: %v", id, code, bytes.Equal(got, want))
		}
	}
	newest := ids[len(ids)-1]
	if st := getStatus(t, ts, newest); st.CacheHits != len(direct) {
		t.Fatalf("newest sweep had %d cache hits, want %d", st.CacheHits, len(direct))
	}
	for i, res := range direct {
		var col bytes.Buffer
		if err := res.WriteCol(&col); err != nil {
			t.Fatal(err)
		}
		got, code := getBody(t, ts, fmt.Sprintf("/v1/sweeps/%s/trace?point=%d", newest, i))
		if code != http.StatusOK || !bytes.Equal(got, col.Bytes()) {
			t.Errorf("trace of cached point %d: %d, equal to the direct run's artifact: %v", i, code, bytes.Equal(got, col.Bytes()))
		}
	}

	if sweeps, retired, _ := retention(t, srv); sweeps != maxTerminalSweeps || retired != maxTerminalSweeps {
		t.Errorf("%d sweeps addressable, %d retired; want %d of each", sweeps, retired, maxTerminalSweeps)
	}
}

// TestServeRetentionByteBound: sweeps that pin a lot are evicted by bytes
// long before the count bound — down to, but never including, the latest.
func TestServeRetentionByteBound(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// One 3 MiB string per point: cheap to marshal, 6 MiB charged (a fresh
	// point pins its bytes and its Result).
	const pointBytes = 3 << 20
	filler := []string{strings.Repeat("x", pointBytes)}
	srv.runPoint = func(_ context.Context, spec exp.HybridSpec) (*exp.Result, error) {
		return &exp.Result{Policy: spec.Policy, AuditErrors: filler}, nil
	}
	var ids []string
	for i := 0; i < 16; i++ {
		status, code := submit(t, ts, oneSpec(fmt.Sprintf("big-%d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, status.ID)
		await(t, ts, status.ID)
	}
	sweeps, retired, pinned := retention(t, srv)
	if want := maxRetainedBytes / (2 * pointBytes); pinned > maxRetainedBytes || retired != want || sweeps != retired {
		t.Errorf("%d sweeps addressable, %d retired pinning %d B; want %d within %d B", sweeps, retired, pinned, want, maxRetainedBytes)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest big sweep: %d, want 404", code)
	}
	if body, code := getBody(t, ts, "/v1/sweeps/"+ids[len(ids)-1]+"/result"); code != http.StatusOK || len(body) < pointBytes {
		t.Errorf("newest big sweep: %d, %d B", code, len(body))
	}

	// One sweep over the whole bound is still kept while it is the latest.
	var specs []string
	for i := 0; i <= maxRetainedBytes/(2*pointBytes); i++ {
		specs = append(specs, fmt.Sprintf(`{"Name":"huge-%d","Policy":"DT","Scale":"tiny","TCPLoad":0.1}`, i))
	}
	status, code := submit(t, ts, `{"name":"huge","specs":[`+strings.Join(specs, ",")+`]}`)
	if code != http.StatusAccepted {
		t.Fatalf("huge submit: %d", code)
	}
	await(t, ts, status.ID)
	sweeps, retired, pinned = retention(t, srv)
	if sweeps != 1 || retired != 1 || pinned <= maxRetainedBytes {
		t.Errorf("after one over-bound sweep: %d addressable, %d retired, %d B pinned", sweeps, retired, pinned)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+status.ID+"/result"); code != http.StatusOK {
		t.Errorf("the latest sweep, though over the byte bound: %d", code)
	}
}

// TestServeLiveSweepsSurviveRetention: queued and running sweeps are never
// evicted, however many sweeps turn terminal after them; a sweep cancelled
// while queued — which never runs — is retired by its DELETE and evicted in
// its turn.
func TestServeLiveSweepsSurviveRetention(t *testing.T) {
	srv, ts, release := blockingServer(t, Config{MaxConcurrent: 1, QueueDepth: 2})
	running, _ := submit(t, ts, oneSpec("running"))
	waitState(t, ts, running.ID, StateRunning)
	queued, _ := submit(t, ts, oneSpec("queued"))

	var cancelled []string
	for i := 0; i < maxTerminalSweeps+5; i++ {
		status, code := submit(t, ts, oneSpec(fmt.Sprintf("doomed-%d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		if code := del(t, ts, status.ID); code != http.StatusOK {
			t.Fatalf("DELETE %d: %d", i, code)
		}
		cancelled = append(cancelled, status.ID)
	}
	for _, id := range cancelled[:5] {
		if _, code := getBody(t, ts, "/v1/sweeps/"+id); code != http.StatusNotFound {
			t.Errorf("cancelled-while-queued %s: %d, want 404 (evicted)", id, code)
		}
	}
	if st := getStatus(t, ts, cancelled[len(cancelled)-1]); st.State != StateCancelled {
		t.Errorf("latest cancelled sweep: %q", st.State)
	}
	if st := getStatus(t, ts, running.ID); st.State != StateRunning {
		t.Errorf("running sweep after %d later terminal ones: %q", len(cancelled), st.State)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateQueued {
		t.Errorf("queued sweep after %d later terminal ones: %q", len(cancelled), st.State)
	}
	if sweeps, retired, _ := retention(t, srv); retired != maxTerminalSweeps || sweeps != maxTerminalSweeps+2 {
		t.Errorf("%d addressable, %d retired; want %d and %d", sweeps, retired, maxTerminalSweeps+2, maxTerminalSweeps)
	}

	close(release)
	for _, id := range []string{running.ID, queued.ID} {
		await(t, ts, id)
		if _, code := getBody(t, ts, "/v1/sweeps/"+id+"/result"); code != http.StatusOK {
			t.Errorf("result of %s after the wait: %d", id, code)
		}
	}
}

// gatedWriter is a ResponseWriter whose first Write parks until released:
// a streaming client that stopped reading mid-stream.
type gatedWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	blocked chan struct{} // closed when the first Write arrives
	release chan struct{}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.blocked)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// TestServeEvictedStreamFinishes: a client attached to /events keeps the
// sweep alive through its own pointer; the id being evicted under it —
// mid-stream, with events it has not read yet — does not cut the stream
// short of the terminal line.
func TestServeEvictedStreamFinishes(t *testing.T) {
	srv, ts, release := blockingServer(t, Config{MaxConcurrent: 2})
	held, _ := submit(t, ts, oneSpec("held"))
	waitState(t, ts, held.ID, StateRunning)

	w := &gatedWriter{ResponseRecorder: httptest.NewRecorder(), blocked: make(chan struct{}), release: make(chan struct{})}
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+held.ID+"/events", nil))
	}()
	<-w.blocked // the client has the "running" line in flight and stalls

	close(release) // every point now finishes at once
	waitState(t, ts, held.ID, StateDone)
	for i := 0; i < maxTerminalSweeps; i++ {
		status, _ := submit(t, ts, oneSpec(fmt.Sprintf("later-%d", i)))
		await(t, ts, status.ID)
	}
	if _, code := getBody(t, ts, "/v1/sweeps/"+held.ID); code != http.StatusNotFound {
		t.Fatalf("the streamed sweep is still addressable (%d); the test did not evict it", code)
	}

	close(w.release)
	<-streamed
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	want := []string{
		`{"type":"state","state":"running","completed":0,"total":1,"cacheHits":0}`,
		`{"type":"point","index":0,"name":"held","policy":"DT","cached":false}`,
		`{"type":"state","state":"done","completed":1,"total":1,"cacheHits":0}`,
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("stream of the evicted sweep:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// The event lines the parent commit (decoding every hit) streamed for a
// fully cached resubmission of goldenBody, captured before the hit path
// stopped decoding, less the member the third point, a faulted one, carried
// while its spec asked for hybrid fidelity (which Validate now refuses).
const goldenBody = `{"name":"golden","specs":[
	{"Name":"g-dt","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4},
	{"Name":"g-l2bm","Policy":"L2BM","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4},
	{"Name":"g-fallback","Policy":"ABM","Scale":"tiny","TCPLoad":0.2,"Faults":{}}]}`

var goldenCachedEvents = []string{
	`{"type":"state","state":"running","completed":0,"total":3,"cacheHits":0}`,
	`{"type":"point","index":0,"name":"g-dt","policy":"DT","cached":true}`,
	`{"type":"point","index":1,"name":"g-l2bm","policy":"L2BM","cached":true}`,
	`{"type":"point","index":2,"name":"g-fallback","policy":"ABM","cached":true}`,
	`{"type":"state","state":"done","completed":3,"total":3,"cacheHits":3}`,
}

// TestServeCachedEventsGolden: a cached resubmission's progress stream is
// byte-equal to the parent commit's, NDJSON and SSE, although no Result is
// decoded to build it any more.
func TestServeCachedEventsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	first, code := submit(t, ts, goldenBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fresh := strings.ReplaceAll(strings.Join(goldenCachedEvents, "\n")+"\n", `"cached":true`, `"cached":false`)
	fresh = strings.Replace(fresh, `"total":3,"cacheHits":3`, `"total":3,"cacheHits":0`, 1)
	if got := string(await(t, ts, first.ID)); got != fresh {
		t.Errorf("fresh stream:\n%s\nwant:\n%s", got, fresh)
	}

	again, _ := submit(t, ts, goldenBody)
	if got, want := string(await(t, ts, again.ID)), strings.Join(goldenCachedEvents, "\n")+"\n"; got != want {
		t.Errorf("cached NDJSON stream:\n%s\nwant:\n%s", got, want)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+again.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "data: " + strings.Join(goldenCachedEvents, "\n\ndata: ") + "\n\n"; string(sse) != want {
		t.Errorf("cached SSE stream:\n%s\nwant:\n%s", sse, want)
	}
}

// TestServeResubmitMemo: a body byte-identical to a retained sweep's shares
// that sweep's decoded request and keys. Any other body is parsed as if
// there were no memo: the same sweep spelled differently, one resubmitted
// after every sweep with its bytes was evicted, and an invalid one, which
// is refused each time and never remembered. Every valid one is settled at
// admission under the same id fragment and serves the same result bytes.
func TestServeResubmitMemo(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	instantPoints(srv)
	base := hotSweep()
	first, _ := submit(t, ts, base)
	await(t, ts, first.ID)
	want, _ := getBody(t, ts, "/v1/sweeps/"+first.ID+"/result")
	fragment := first.ID[strings.LastIndex(first.ID, "-"):]
	reqOf := func(id string) *exp.SweepRequest {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sweeps[id].req
	}
	parsed := reqOf(first.ID)
	specs := strings.TrimSuffix(strings.TrimPrefix(base, `{"name":"hot","specs":`), "}")

	for _, tc := range []struct {
		name  string
		evict bool // first retire maxTerminalSweeps other sweeps
		body  string
		code  int
		twin  bool // shares the first submission's request
	}{
		{name: "identical", body: base, code: http.StatusAccepted, twin: true},
		{name: "whitespace", body: " " + base + "\n", code: http.StatusAccepted},
		{name: "key order", body: `{"specs":` + specs + `,"name":"hot"}`, code: http.StatusAccepted},
		{name: "invalid", body: base + "]", code: http.StatusBadRequest},
		{name: "twin evicted", evict: true, body: base, code: http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.evict {
				for i := 0; i < maxTerminalSweeps; i++ {
					st, _ := submit(t, ts, oneSpec(fmt.Sprintf("evict-%d", i)))
					await(t, ts, st.ID)
				}
				if _, code := getBody(t, ts, "/v1/sweeps/"+first.ID); code != http.StatusNotFound {
					t.Fatalf("the first sweep is still addressable (%d); nothing was evicted", code)
				}
			}
			for try := 0; try < 2; try++ {
				st, code := submit(t, ts, tc.body)
				if code != tc.code {
					t.Fatalf("submission %d: %d, want %d", try, code, tc.code)
				}
				if code != http.StatusAccepted {
					continue
				}
				if st.State != StateDone || !strings.HasSuffix(st.ID, fragment) {
					t.Errorf("submission %d: %s reads %s at admission, want done under fragment %s", try, st.ID, st.State, fragment)
				}
				if got := reqOf(st.ID) == parsed; got != tc.twin {
					t.Errorf("submission %d: shares the first request: %v, want %v", try, got, tc.twin)
				}
				if got, _ := getBody(t, ts, "/v1/sweeps/"+st.ID+"/result"); !bytes.Equal(got, want) {
					t.Errorf("submission %d: result differs from the first sweep's", try)
				}
			}
			srv.mu.Lock()
			remembered := srv.twins[tc.body] != nil
			srv.mu.Unlock()
			if remembered != (tc.code == http.StatusAccepted) {
				t.Errorf("the memo holds the body: %v", remembered)
			}
			retention(t, srv)
		})
	}
}

// TestServeResultContentLength: /result announces the exact length of the
// envelope it splices, so the body goes out unchunked.
func TestServeResultContentLength(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	instantPoints(srv)
	status, _ := submit(t, ts, sweepBody)
	await(t, ts, status.ID)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, transfer encoding %v, body %d B", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	var env struct{ Points []json.RawMessage }
	if err := json.Unmarshal(body, &env); err != nil || len(env.Points) != 2 {
		t.Errorf("envelope: %v, %d points", err, len(env.Points))
	}
}

// TestServeHammer drives one server from many clients at once — submit,
// stream, status, result, trace, cancel — and then audits what is left.
// Clients submit the same bodies concurrently, so most submissions share a
// live sweep's request and keys through the memo; every done sweep of one
// body serves the same result bytes. Run under -race; the assertions are
// the lifecycle invariants.
func TestServeHammer(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 4, CacheDir: t.TempDir()})
	instantPoints(srv)
	var results sync.Map // body -> the first done sweep's result bytes

	const clients, rounds = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				// Six distinct sweeps: the same points are put and looked
				// up by overlapping sweeps.
				body := oneSpec(fmt.Sprintf("hammer-%d", (c+k)%6))
				resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st statusResponse
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // backpressure is an allowed answer
				}
				if resp.StatusCode != http.StatusAccepted || err != nil {
					t.Errorf("client %d round %d: submit %d, %v", c, k, resp.StatusCode, err)
					return
				}
				cancel := (c+k)%4 == 0
				if cancel {
					if code := del(t, ts, st.ID); code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("client %d round %d: DELETE %d", c, k, code)
					}
				}
				// An id is evicted before its own client comes back for it
				// only if 256 sweeps finish in between; eight clients
				// cannot do that, so every answer is checked.
				stream, code := getBody(t, ts, "/v1/sweeps/"+st.ID+"/events")
				lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
				var last stateEvent
				if code != http.StatusOK || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || !terminal(last.State) {
					t.Errorf("client %d round %d: stream %d ends %q", c, k, code, lines[len(lines)-1])
					continue
				}
				if !cancel && last.State != StateDone {
					t.Errorf("client %d round %d: ended %s: %s", c, k, last.State, last.Error)
				}
				if st := getStatus(t, ts, st.ID); st.State != last.State {
					t.Errorf("client %d round %d: status %q after a stream that ended %q", c, k, st.State, last.State)
				}
				wantCode := http.StatusOK
				if last.State != StateDone {
					wantCode = http.StatusConflict
				}
				for _, path := range []string{"/result", "/trace?point=0"} {
					got, code := getBody(t, ts, "/v1/sweeps/"+st.ID+path)
					if code != wantCode {
						t.Errorf("client %d round %d: %s of a %s sweep: %d", c, k, path, last.State, code)
					}
					if path == "/result" && code == http.StatusOK {
						if first, _ := results.LoadOrStore(body, got); !bytes.Equal(first.([]byte), got) {
							t.Errorf("client %d round %d: %s serves other bytes than an earlier sweep of its body", c, k, st.ID)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// A client sees its sweep's terminal line before the run goroutine's
	// deferred finish gives the slot back, so let the last one get there.
	running, queued := 1, 0
	for deadline := time.Now().Add(5 * time.Second); running != 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		running, queued = srv.running, len(srv.queue)
		srv.mu.Unlock()
	}
	sweeps, retired, _ := retention(t, srv)
	if running != 0 || queued != 0 || sweeps != retired || retired > maxTerminalSweeps {
		t.Errorf("at rest: %d running, %d queued, %d addressable, %d retired", running, queued, sweeps, retired)
	}
}

// hotSweep is the benchmark's daemon sweep: 4 policies x 2 TCP loads at
// ScaleTiny, ~19 kB of results.
func hotSweep() string {
	var specs []string
	for _, pol := range exp.PolicyNames {
		for _, load := range []float64{0.4, 0.8} {
			specs = append(specs, fmt.Sprintf(`{"Name":"hot","Policy":%q,"Scale":"tiny","RDMALoad":0.4,"TCPLoad":%v}`, pol, load))
		}
	}
	return `{"name":"hot","specs":[` + strings.Join(specs, ",") + `]}`
}

// resubmit is one closed-loop round trip, as the benchmark's clients make
// them: submit, follow the events to the end, fetch the result.
func resubmit(t testing.TB, c *http.Client, base, body string) []byte {
	t.Helper()
	resp, err := c.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}
	var result []byte
	for _, path := range []string{"/events", "/result"} {
		resp, err := c.Get(base + "/v1/sweeps/" + st.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		result, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, %v", path, resp.StatusCode, err)
		}
	}
	return result
}

// TestServeFinishedStreamKeepsConn: 200 closed-loop resubmissions whose
// client reads /events only up to the terminal line and then closes the
// body, as the benchmark's follower does, all run on the first round trip's
// connection. The terminal batch leaves with the end of the body, so the
// client has read that end with the line; a body closed short of it costs
// the connection.
func TestServeFinishedStreamKeepsConn(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	instantPoints(srv)
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	var dialed atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dialed.Add(1)
			}
		},
	})
	do := func(method, path, body string) *http.Response {
		req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	sweep := hotSweep()
	for i := 0; i < 200; i++ {
		if i == 1 {
			dialed.Store(0)
		}
		resp := do(http.MethodPost, "/v1/sweeps", sweep)
		var st statusResponse
		ack, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || json.Unmarshal(ack, &st) != nil {
			t.Fatalf("round trip %d: submit %d, %v: %q", i, resp.StatusCode, err, ack)
		}

		resp = do(http.MethodGet, "/v1/sweeps/"+st.ID+"/events", "")
		sc := bufio.NewScanner(resp.Body)
		var last stateEvent
		for sc.Scan() {
			if json.Unmarshal(sc.Bytes(), &last) == nil && last.Type == "state" && terminal(last.State) {
				break
			}
		}
		resp.Body.Close() // at the terminal line, wherever the body is
		if last.State != StateDone {
			t.Fatalf("round trip %d: stream stopped at %+v", i, last)
		}

		resp = do(http.MethodGet, "/v1/sweeps/"+st.ID+"/result", "")
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("round trip %d: result %d, %v", i, resp.StatusCode, err)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("%d new connections over 199 round trips after the first, want 0", n)
	}
}

// TestHotResubmitHeapFlat is the memory gate of a long-lived daemon: one
// pre-filled sweep resubmitted 3,000 times must leave the live heap where
// it was after 500 — what the retention bound and the shared point bytes
// buy. (Measured: with the eviction loop disabled it grows by 10.6 MB and
// fails; the commit before retention existed, which also kept a decoded
// copy of every hit, grew by 106.7 MB.)
func TestHotResubmitHeapFlat(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	client := ts.Client()
	body := hotSweep()
	want := resubmit(t, client, ts.URL, body)

	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var at500 uint64
	for i := 1; i <= 3000; i++ {
		if got := resubmit(t, client, ts.URL, body); !bytes.Equal(got, want) {
			t.Fatalf("resubmission %d served different bytes than the fresh run", i)
		}
		if i == 500 {
			at500 = liveHeap()
		}
	}
	at3000 := liveHeap()
	const slack = 2 << 20
	if at3000 > at500+slack {
		t.Errorf("live heap grew from %d B at resubmission 500 to %d B at 3000 (+%d B, allowed %d)", at500, at3000, at3000-at500, slack)
	}
	srv.mu.Lock()
	addressable := len(srv.sweeps)
	srv.mu.Unlock()
	if limit := maxTerminalSweeps + srv.cfg.MaxConcurrent + srv.cfg.QueueDepth; addressable > limit {
		t.Errorf("%d sweeps addressable, want at most %d", addressable, limit)
	}
}

// hotRoundTrip is one closed-loop round trip — submit, events, result —
// through the handlers in process (no sockets), so what it allocates is the
// daemon's own. It returns the result's size.
func hotRoundTrip(tb testing.TB, srv *Server, body string) int {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body)))
	var st statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
		tb.Fatalf("submit: %d, %v", w.Code, err)
	}
	for _, path := range []string{"/events", "/result"} {
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+st.ID+path, nil))
		if w.Code != http.StatusOK {
			tb.Fatalf("%s: %d", path, w.Code)
		}
	}
	return w.Body.Len()
}

// TestHotResubmitAllocs: a cached eight-point resubmission costs one memo
// lookup of its body, the sweep's bookkeeping and the response buffers —
// 124 allocations measured, 150 under -race (whose sync.Pool drops items on
// purpose), 193 allowed (the 380/244 headroom of the parse-every-body
// daemon) — with no request parse, no marshal for its keys and no decode of
// a stored point: decoding the eight adds 268 more.
func TestHotResubmitAllocs(t *testing.T) {
	srv, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	body := hotSweep()
	size := hotRoundTrip(t, srv, body) // the one fresh run fills the cache
	allocs := testing.AllocsPerRun(200, func() {
		if got := hotRoundTrip(t, srv, body); got != size {
			t.Fatalf("a resubmission served %d B, the fresh run %d", got, size)
		}
	})
	t.Logf("%.0f allocations per cached resubmission (%d B result)", allocs, size)
	if allocs > 193 {
		t.Errorf("a cached resubmission allocates %.0f times, want <= 193 (measured 124)", allocs)
	}
}

// BenchmarkHotResubmit prices hotRoundTrip on a filled cache: 44–53 µs and
// 125 allocations per op on 2 vCPUs.
func BenchmarkHotResubmit(b *testing.B) {
	srv, err := New(Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	body := hotSweep()
	size := hotRoundTrip(b, srv, body) // the one fresh run fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := hotRoundTrip(b, srv, body); got != size {
			b.Fatalf("resubmission %d served %d B, the fresh run %d", i, got, size)
		}
	}
}
