// Package serve is the experiment service behind cmd/l2bmd: an HTTP/JSON
// daemon that accepts HybridSpec sweep submissions, runs them on a bounded
// admission queue over the exp worker pool, streams per-point progress and
// serves results and columnar artifacts.
//
// API (Go 1.22 method+wildcard mux patterns):
//
//	POST   /v1/sweeps              submit a sweep (202 + id; 400 invalid; 429 full)
//	GET    /v1/sweeps/{id}         status JSON
//	GET    /v1/sweeps/{id}/events  progress stream: NDJSON, or SSE with
//	                               Accept: text/event-stream (replays from the
//	                               start, then follows to the terminal state)
//	GET    /v1/sweeps/{id}/result  canonical result bytes (exp.MarshalResults
//	                               envelope — byte-identical to the CLI's
//	                               -spec output for the same specs)
//	GET    /v1/sweeps/{id}/trace   one point's columnar artifact (?point=N)
//	DELETE /v1/sweeps/{id}         cancel (dequeues a queued sweep; interrupts
//	                               a running one via context)
//	GET    /healthz                liveness probe
//
// Admission control: at most MaxConcurrent sweeps simulate at once; up to
// QueueDepth more wait FIFO; beyond that, submissions get 429 — the
// backpressure contract that keeps a shared daemon from melting under
// overlapping submissions. The content-hash result cache (exp.ResultCache)
// makes repeated or overlapping sweeps free: a cache hit skips the
// simulation and serves the stored canonical bytes, which are identical to
// what the fresh run would have produced — as bytes, never decoded on the
// way through. Admission bounds sweeps that simulate: one whose every point
// is already stored is settled at submission, so it takes no slot, never
// queues, is never refused and its 202 already reads done. A body
// byte-identical to a retained sweep's is not decoded again: it shares that
// sweep's request and cache keys.
//
// Retention: an id stays addressable while its sweep is queued or running,
// and afterwards for as long as it is among the most recent
// maxTerminalSweeps finished sweeps holding at most maxRetainedBytes
// between them. An older id answers 404, exactly like one never issued;
// resubmitting the sweep is a cache hit per point.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"l2bm/internal/exp"
)

// Config parameterizes the server. The zero value serves with defaults: one
// sweep at a time, a queue of eight, GOMAXPROCS pool workers, no cache.
type Config struct {
	// MaxConcurrent bounds sweeps simulating at once (<= 0 means 1).
	MaxConcurrent int
	// QueueDepth bounds sweeps waiting for a slot (< 0 means 0; the
	// default is 8). A full queue answers 429.
	QueueDepth int
	// Workers is each sweep's exp.Pool worker bound (<= 0 = GOMAXPROCS).
	Workers int
	// CacheDir, when non-empty, arms the content-hash result cache there.
	CacheDir string
}

// DefaultQueueDepth is the admission queue bound when Config leaves
// QueueDepth zero.
const DefaultQueueDepth = 8

// Retention bounds for terminal (done, failed, cancelled) sweeps: the daemon
// keeps the most recent maxTerminalSweeps of them, and fewer when together
// they would pin more than maxRetainedBytes (see sweep.bytes for what is
// counted) — but always the latest one, whatever its size. With the result
// cache's memory tier this is what bounds a long-lived daemon's heap:
// worst case tier bound + retention bound + the sweeps in flight.
const (
	maxTerminalSweeps = 256
	maxRetainedBytes  = 64 << 20
)

// Sweep states reported by status and events.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Server is the HTTP handler. Construct with New.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *exp.ResultCache

	// runPoint executes one point; tests swap in blocking fakes to exercise
	// admission and cancellation deterministically. Defaults to
	// exp.RunHybridCtx.
	runPoint func(ctx context.Context, spec exp.HybridSpec) (*exp.Result, error)

	mu      sync.Mutex
	sweeps  map[string]*sweep
	queue   []*sweep
	running int
	seq     int
	// retired lists the terminal sweeps still in sweeps, oldest first;
	// retainedBytes sums their charges. Queued and running sweeps are in
	// neither, so they cannot be evicted.
	retired       []*sweep
	retainedBytes int
	// twins maps a request body to the newest sweep admitted with exactly
	// those bytes, so a byte-identical resubmission reuses its request and
	// keys instead of decoding them again. An entry goes when its sweep is
	// evicted, so it never outlives retention.
	twins map[string]*sweep
}

// New builds a server. When cfg.CacheDir is set the cache directory is
// created eagerly so a misconfigured path fails at startup, not mid-sweep.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	s := &Server{
		cfg:      cfg,
		sweeps:   make(map[string]*sweep),
		twins:    make(map[string]*sweep),
		runPoint: exp.RunHybridCtx,
	}
	if cfg.CacheDir != "" {
		cache, err := exp.NewResultCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// sweep is one submission's lifecycle. mu guards everything below it;
// notify is closed-and-replaced on every change (broadcast), so streamers
// wait without polling.
type sweep struct {
	id string
	// body is the submission, fragment its id's hash and keys the specs'
	// cache keys, derived once from the body and kept read-only for as long
	// as the sweep is, so a byte-identical resubmission can reuse them
	// along with req.
	body     string
	fragment string
	req      *exp.SweepRequest
	keys     []string
	ctx      context.Context
	cancel   context.CancelFunc

	// retained is what retirement charged against maxRetainedBytes and what
	// eviction gives back; guarded by Server.mu.
	retained int

	mu        sync.Mutex
	notify    chan struct{}
	state     string
	completed int
	cacheHits int
	errMsg    string
	events    [][]byte // NDJSON lines, no trailing newline
	results   *results // set on done
	// bytes is what the sweep pins: the submission body (standing in for
	// the decoded specs), the cache keys, the event lines and, once done,
	// results.pinned.
	bytes int
}

// results is what a done sweep serves.
type results struct {
	// raw holds every point's canonical bytes; a cache hit shares its slice
	// with the cache's memory tier.
	raw []json.RawMessage
	// fresh holds the Results this sweep simulated itself (they may carry a
	// flight recorder, which the bytes do not), nil at every cache hit.
	fresh []*exp.Result
	// pinned is the retention charge: every point's bytes, counted twice
	// for a fresh point, whose decoded Result is no larger than its JSON. A
	// flight recorder armed by a spec is not counted.
	pinned int
}

// newSweep builds a queued sweep; handleSubmit names it under s.mu.
func newSweep(body, fragment string, req *exp.SweepRequest, keys []string) *sweep {
	ctx, cancel := context.WithCancel(context.Background())
	sw := &sweep{
		body: body, fragment: fragment, req: req, keys: keys, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), state: StateQueued, bytes: len(body),
	}
	for _, key := range keys {
		sw.bytes += len(key)
	}
	return sw
}

// newResults is what a done sweep serves, charged as results.pinned says.
func newResults(raw []json.RawMessage, fresh []*exp.Result) *results {
	res := &results{raw: raw, fresh: fresh}
	for i, b := range raw {
		res.pinned += len(b)
		if fresh[i] != nil {
			res.pinned += len(b)
		}
	}
	return res
}

// appendLocked adds one NDJSON progress line and wakes streamers. Callers
// hold sw.mu.
func (sw *sweep) appendLocked(line []byte) {
	sw.events = append(sw.events, line)
	sw.bytes += len(line)
	close(sw.notify)
	sw.notify = make(chan struct{})
}

// event appends one NDJSON progress line, counted as a completed point
// when it is one. Callers hold no locks. A terminal sweep is frozen — the
// points still in flight when a DELETE lands report to nobody — so the
// terminal line is the last line of every stream and the status stops
// where that line says it did.
func (sw *sweep) event(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if terminal(sw.state) {
		return
	}
	if pt, ok := v.(pointEvent); ok {
		sw.completed++
		if pt.Cached {
			sw.cacheHits++
		}
	}
	sw.appendLocked(line)
}

// point reports point i finished, from the cache or not. Name and Policy
// come from the spec: a wire spec cannot carry a PolicyFactory, so its
// Policy is the Result's.
func (sw *sweep) point(i int, cached bool) {
	spec := sw.req.Specs[i]
	sw.event(pointEvent{Type: "point", Index: i, Name: spec.Name, Policy: spec.Policy, Cached: cached})
}

type stateEvent struct {
	Type      string `json:"type"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	CacheHits int    `json:"cacheHits"`
	Error     string `json:"error,omitempty"`
}

type pointEvent struct {
	Type   string `json:"type"`
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Policy string `json:"policy"`
	Cached bool   `json:"cached"`
}

// setState transitions the sweep and emits the matching state event
// atomically, so a streamer that observes a terminal state has already
// received every prior event. A terminal sweep stays what it is: a sweep
// cancelled while it waited to start does not become running.
func (sw *sweep) setState(state, errMsg string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !terminal(sw.state) {
		sw.setStateLocked(state, errMsg)
	}
}

func (sw *sweep) setStateLocked(state, errMsg string) {
	sw.state = state
	sw.errMsg = errMsg
	ev := stateEvent{Type: "state", State: state, Completed: sw.completed,
		Total: len(sw.req.Specs), CacheHits: sw.cacheHits, Error: errMsg}
	line, _ := json.Marshal(ev) // a struct of strings and ints cannot fail
	sw.appendLocked(line)
}

// end is the terminal transition; res is non-nil exactly when state is
// done, and is published in the same critical section as the state, so a
// DELETE racing the last point either wins (nothing is published) or loses
// (the sweep is done and stays done). It returns what the sweep now pins.
func (sw *sweep) end(state, errMsg string, res *results) (pinned int, ok bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if terminal(sw.state) {
		return 0, false
	}
	if res != nil {
		sw.results = res
		sw.bytes += res.pinned
	}
	sw.setStateLocked(state, errMsg)
	return sw.bytes, true
}

type statusResponse struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cacheHits"`
	Error     string `json:"error,omitempty"`
}

func (sw *sweep) status() statusResponse {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return statusResponse{
		ID: sw.id, Name: sw.req.Name, State: sw.state, Total: len(sw.req.Specs),
		Completed: sw.completed, CacheHits: sw.cacheHits, Error: sw.errMsg,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds submission bodies (a 100k-point grid is still far
// below this; anything larger is a client bug, not a sweep).
const maxRequestBytes = 64 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxRequestBytes {
		jsonError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", maxRequestBytes)
		return
	}

	// Decode, hash and look up outside the lock: Keys encodes every spec,
	// and a 100k-point submission must not stall every other sweep's
	// status/result/events lookup meanwhile. A body byte-identical to a
	// retained sweep's skips the first two and shares that sweep's read-only
	// request and keys. Only the memo, the sequence number and the admission
	// decision need s.mu. A sweep whose every point is stored streams what
	// run would — running, each point cached, done — and is settled before
	// anyone can see it.
	s.mu.Lock()
	twin := s.twins[string(body)]
	s.mu.Unlock()
	var sw *sweep
	if twin != nil {
		sw = newSweep(twin.body, twin.fragment, twin.req, twin.keys)
	} else {
		req, err := exp.ParseSweepRequest(body)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
		fragment, keys := req.Keys()
		sw = newSweep(string(body), fragment, req, keys)
	}
	var stored *results
	if raw := s.storedPoints(sw.keys); raw != nil {
		sw.setState(StateRunning, "")
		for i := range raw {
			sw.point(i, true)
		}
		stored = newResults(raw, make([]*exp.Result, len(raw)))
	}

	s.mu.Lock()
	s.seq++
	sw.id = fmt.Sprintf("sw-%03d-%.8s", s.seq, sw.fragment)
	switch {
	case stored != nil:
		// Nothing to simulate, so nothing to admit.
	case s.running < s.cfg.MaxConcurrent:
		s.running++
		go s.run(sw)
	case len(s.queue) < s.cfg.QueueDepth:
		s.queue = append(s.queue, sw)
	default:
		queued := len(s.queue)
		s.mu.Unlock()
		jsonError(w, http.StatusTooManyRequests,
			"admission queue full (%d running, %d queued); retry later", s.cfg.MaxConcurrent, queued)
		return
	}
	s.sweeps[sw.id] = sw
	s.twins[sw.body] = sw
	if stored != nil {
		s.settleLocked(sw, StateDone, "", stored)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, sw.status())
}

// storedPoints returns every point's stored bytes when each of keys hits
// the cache, and nil at the first miss.
func (s *Server) storedPoints(keys []string) []json.RawMessage {
	if s.cache == nil {
		return nil
	}
	raw := make([]json.RawMessage, len(keys))
	for i, key := range keys {
		var ok bool
		if raw[i], ok = s.cache.LookupKey(key); !ok {
			return nil
		}
	}
	return raw
}

// settle ends a sweep — done with res, or failed/cancelled without — and
// retires it: the sweep becomes evictable, and sweeps are evicted from the
// old end while either retention bound is exceeded, always keeping the
// latest. Transition and retirement share one critical section of s.mu, so
// no request can find a terminal sweep that is not yet accounted for. The
// callers are the run goroutine, DELETE — the only way out for a sweep
// cancelled while queued, which never runs — and handleSubmit for a sweep
// the cache answers whole; whichever loses a race finds the sweep terminal
// and does nothing. An evicted sweep is merely forgotten: a streamer
// already attached holds the pointer and finishes its stream.
func (s *Server) settle(sw *sweep, state, errMsg string, res *results) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked(sw, state, errMsg, res)
}

// settleLocked is settle for a caller holding s.mu.
func (s *Server) settleLocked(sw *sweep, state, errMsg string, res *results) {
	pinned, ok := sw.end(state, errMsg, res)
	if !ok {
		return
	}
	sw.retained = pinned
	s.retired = append(s.retired, sw)
	s.retainedBytes += pinned
	for len(s.retired) > 1 && (len(s.retired) > maxTerminalSweeps || s.retainedBytes > maxRetainedBytes) {
		old := s.retired[0]
		s.retired[0] = nil // the backing array must not pin what the map forgot
		s.retired = s.retired[1:]
		delete(s.sweeps, old.id)
		if s.twins[old.body] == old {
			delete(s.twins, old.body)
		}
		s.retainedBytes -= old.retained
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweep {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		jsonError(w, http.StatusNotFound, "no sweep %q", id)
	}
	return sw
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sw := s.lookup(w, r); sw != nil {
		writeJSON(w, http.StatusOK, sw.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	sw.mu.Lock()
	state, res := sw.state, sw.results
	sw.mu.Unlock()
	if state != StateDone {
		jsonError(w, http.StatusConflict, "sweep %s is %s, not done", sw.id, state)
		return
	}
	// The envelope is spliced into one buffer of its exact length and goes
	// out in one Write.
	var buf bytes.Buffer
	buf.Grow(exp.RawResultsLen(res.raw))
	_ = exp.WriteRawResults(&buf, res.raw) // a bytes.Buffer write cannot fail
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	// On a write error all that is left is to stop.
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	point, err := strconv.Atoi(r.URL.Query().Get("point"))
	if err != nil || point < 0 || point >= len(sw.req.Specs) {
		jsonError(w, http.StatusBadRequest, "?point must be in [0, %d)", len(sw.req.Specs))
		return
	}
	sw.mu.Lock()
	state, done := sw.state, sw.results
	sw.mu.Unlock()
	if state != StateDone {
		jsonError(w, http.StatusConflict, "sweep %s is %s; artifacts are served once done", sw.id, state)
		return
	}
	res := done.fresh[point]
	if res == nil {
		// A cache hit was served as bytes; this is the one request that
		// needs the struct, so it pays the decode.
		res = new(exp.Result)
		if err := json.Unmarshal(done.raw[point], res); err != nil {
			jsonError(w, http.StatusInternalServerError, "sweep %s point %d: %v", sw.id, point, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := res.WriteCol(w); err != nil {
		// Headers are out; all we can do is drop the connection mid-body.
		return
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	s.mu.Lock()
	for i, queued := range s.queue {
		if queued == sw {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.settle(sw, StateCancelled, "cancelled by DELETE", nil)
	sw.cancel() // interrupts a running pool at the next poll boundary
	writeJSON(w, http.StatusOK, sw.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	cursor := 0
	for {
		sw.mu.Lock()
		for cursor >= len(sw.events) && !terminal(sw.state) {
			notify := sw.notify
			sw.mu.Unlock()
			select {
			case <-notify:
			case <-r.Context().Done():
				return
			}
			sw.mu.Lock()
		}
		batch := sw.events[cursor:len(sw.events):len(sw.events)]
		cursor = len(sw.events)
		done := terminal(sw.state) && cursor == len(sw.events)
		sw.mu.Unlock()
		for _, line := range batch {
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", line)
			} else {
				w.Write(line)
				io.WriteString(w, "\n")
			}
		}
		// The terminal batch is left unflushed: it goes out with the
		// chunk terminator when the handler returns, so a client that stops
		// reading at the terminal line has also read the end of the body and
		// its connection stays reusable.
		if done {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// run executes one admitted sweep and then hands its slot to the next
// queued one. Each point goes through the cache's Point in its worker: a
// hit skips the simulation and yields only bytes — no Result is decoded
// for it, here or later, unless someone asks for its /trace — and a fresh
// point is stored there the moment it finishes. The collator reports
// points in ascending order, and /result splices the per-point bytes,
// cached or fresh, the same bytes either way.
func (s *Server) run(sw *sweep) {
	defer s.finish(sw)
	sw.setState(StateRunning, "")
	n := len(sw.req.Specs)
	pointRaw := make([]json.RawMessage, n)

	pool := &exp.Pool{Workers: s.cfg.Workers}
	fresh, _, err := pool.Run(sw.ctx, n,
		func(ctx context.Context, i int) (*exp.Result, error) {
			raw, res, err := s.cache.Point(ctx, sw.keys[i], sw.req.Specs[i], s.runPoint)
			pointRaw[i] = raw
			return res, err
		},
		func(i int, res *exp.Result) { sw.point(i, res == nil) })

	switch {
	case err == nil:
		s.settle(sw, StateDone, "", newResults(pointRaw, fresh))
	case sw.ctx.Err() != nil:
		s.settle(sw, StateCancelled, "cancelled by DELETE", nil)
	default:
		s.settle(sw, StateFailed, err.Error(), nil)
	}
}

// finish releases the sweep's slot and starts the next live queued sweep.
func (s *Server) finish(_ *sweep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	for len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		next.mu.Lock()
		dead := terminal(next.state)
		next.mu.Unlock()
		if dead {
			continue // cancelled while queued
		}
		s.running++
		go s.run(next)
		return
	}
}
