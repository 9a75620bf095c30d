package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"l2bm/internal/exp"
	"l2bm/internal/sim"
)

// daemonProc is a running l2bmd child on a loopback port, with a fresh
// result cache under dir.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string
	stderr bytes.Buffer // what the child said, for the error when it does not come up
}

// startDaemon launches l2bmd and returns once /healthz answers. Admission
// runs one sweep at a time, as a shared daemon would be deployed; the pool
// inside a sweep still fans its points over both cores.
func startDaemon(bin, dir string) (*daemonProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	addrFile := filepath.Join(dir, "addr")
	d := &daemonProc{dir: dir}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache", filepath.Join(dir, "cache"), "-max-concurrent", "1")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start l2bmd: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d.base == "" {
		d.stop()
		return nil, fmt.Errorf("bench: l2bmd never wrote its -addr-file: %s", d.stderr.String())
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("bench: l2bmd never answered /healthz: %s", d.stderr.String())
}

// stop terminates the child and waits until it has exited.
func (d *daemonProc) stop() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of a signalled child carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

// reqTiming is one request's client-side breakdown, milliseconds.
type reqTiming struct {
	total, submit, queue, wait, result float64
	cacheHits, points                  int
}

// client is one closed-loop submitter: it sends its next sweep only after
// the previous one's result bytes are in hand.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// roundTrip submits body, follows the event stream to the terminal state and
// fetches the result. Any non-2xx answer (429 included) is an error.
func (c *client) roundTrip(body []byte, tr *tracer, parent span, id int64) ([]byte, reqTiming, error) {
	var tm reqTiming
	t0 := time.Now()

	sp := tr.start(parent, "serve.submit", id)
	resp, err := c.http.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end()
		return nil, tm, fmt.Errorf("submit: %w", err)
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, tm, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, tm, &statusError{op: "submit", code: resp.StatusCode, body: ack}
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &st); err != nil || st.ID == "" {
		return nil, tm, fmt.Errorf("submit: unreadable 202 body %q", ack)
	}
	t1 := time.Now()
	tm.submit = ms(t1.Sub(t0))

	sp = tr.start(parent, "serve.wait", id)
	final, running, err := c.follow(st.ID)
	sp.end()
	if err != nil {
		return nil, tm, err
	}
	t2 := time.Now()
	if !running.IsZero() {
		tm.queue = ms(running.Sub(t1))
	}
	tm.wait = ms(t2.Sub(t1))
	tm.cacheHits, tm.points = final.CacheHits, final.Total
	if final.State != "done" {
		return nil, tm, fmt.Errorf("sweep %s ended %s: %s", st.ID, final.State, final.Error)
	}

	sp = tr.start(parent, "serve.result", id)
	resp, err = c.http.Get(c.base + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		sp.end()
		return nil, tm, fmt.Errorf("result: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, tm, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, tm, &statusError{op: "result", code: resp.StatusCode, body: data}
	}
	t3 := time.Now()
	tm.result = ms(t3.Sub(t2))
	tm.total = ms(t3.Sub(t0))
	return data, tm, nil
}

type statusError struct {
	op   string
	code int
	body []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, bytes.TrimSpace(e.body))
}

// stateEvent is the daemon's NDJSON state line (serve.stateEvent).
type stateEvent struct {
	Type      string `json:"type"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	CacheHits int    `json:"cacheHits"`
	Error     string `json:"error"`
}

// follow reads /events until a terminal state line. It also returns when the
// "running" line arrived: the gap between the 202 and that line is the time
// the sweep sat queued behind another.
func (c *client) follow(id string) (final stateEvent, running time.Time, err error) {
	resp, err := c.http.Get(c.base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return final, running, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return final, running, &statusError{op: "events", code: resp.StatusCode, body: body}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev stateEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Type != "state" {
			continue
		}
		switch ev.State {
		case "running":
			running = time.Now()
		case "done", "failed", "cancelled":
			return ev, running, nil
		}
	}
	if err := sc.Err(); err != nil {
		return final, running, fmt.Errorf("events: %w", err)
	}
	return final, running, errors.New("events: stream ended before a terminal state")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sweepBody is one 8-point ScaleTiny sweep (4 policies × TCP 0.4/0.8) and
// its wire encoding.
type sweepBody struct {
	specs []exp.HybridSpec
	body  []byte
}

// makeSweep builds the sweep for one traffic salt. variant makes the same
// sweep distinct for the result cache without changing what is simulated:
// it lengthens the drain horizon by that many picoseconds, and the horizon
// of a run whose flows all finish never binds. The cold workload's timed
// sweeps are variants 0, 1, 2… of one salt, so each misses the cache and
// each repeats identical work, and their latencies are samples of one
// quantity rather than of thirty different sweeps.
func makeSweep(salt string, variant int, smoke bool) (sweepBody, error) {
	loads := []float64{0.4, 0.8}
	policies := exp.PolicyNames
	if smoke {
		loads, policies = loads[:1], policies[:2]
	}
	var specs []exp.HybridSpec
	for _, pol := range policies {
		for _, load := range loads {
			specs = append(specs, exp.HybridSpec{
				Name: "daemon", Policy: pol, Scale: exp.ScaleTiny,
				RDMALoad: 0.4, TCPLoad: load, SeedSalt: salt,
				DrainOverride: exp.ScaleTiny.Drain() + sim.Duration(variant),
			})
		}
	}
	name := fmt.Sprintf("bench-%s-%d", salt, variant)
	body, err := json.Marshal(exp.SweepRequest{Name: name, Specs: specs})
	if err != nil {
		return sweepBody{}, fmt.Errorf("bench: encode sweep: %w", err)
	}
	return sweepBody{specs: specs, body: body}, nil
}

// direct runs the sweep's specs in process and returns the canonical bytes
// the daemon must have served for them.
func (s sweepBody) direct() ([]byte, []*exp.Result, error) {
	results := make([]*exp.Result, len(s.specs))
	for i, spec := range s.specs {
		res, err := exp.RunHybridCtx(context.Background(), spec)
		if err != nil {
			return nil, nil, err
		}
		results[i] = res
	}
	data, err := exp.MarshalResults(results)
	return data, results, err
}

// decodeResults parses a /result body back into Results for the counter
// harvest and the per-point predicates.
func decodeResults(data []byte) ([]*exp.Result, error) {
	var env struct {
		Points []*exp.Result `json:"points"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("bench: decode result: %w", err)
	}
	return env.Points, nil
}

// rssWatch polls the daemon's resident set while a phase runs. It records
// (sweeps done, RSS) pairs for the growth slope and trips once RSS passes
// the limit, which aborts the phase: l2bmd never evicts a finished sweep, so
// a long hot loop grows without bound.
type rssWatch struct {
	pid     int
	done    *atomic.Int64 // sweeps completed so far
	tripped atomic.Bool

	stopc chan struct{}
	wg    sync.WaitGroup
	xs    []float64 // sweeps done
	ys    []float64 // RSS kB
}

const rssLimitKB = 1 << 20 // 1 GiB

func startRSSWatch(pid int, done *atomic.Int64) *rssWatch {
	w := &rssWatch{pid: pid, done: done, stopc: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
				kb, err := procStatusKB(w.pid, "VmRSS")
				if err != nil {
					continue // the child is gone; the phase reports that itself
				}
				w.xs = append(w.xs, float64(w.done.Load()))
				w.ys = append(w.ys, float64(kb))
				if kb > rssLimitKB {
					w.tripped.Store(true)
				}
			}
		}
	}()
	return w
}

// stop ends the poller and returns the RSS growth in kB per sweep.
func (w *rssWatch) stop() float64 {
	close(w.stopc)
	w.wg.Wait()
	return slope(w.xs, w.ys)
}

// daemonWorkload drives a real l2bmd child over loopback TCP (not a real
// link: there is no propagation delay, loss or bandwidth limit between
// client and daemon). Clients are closed loops, as the scripts that submit
// sweeps are: each waits for its result before sending again.
type daemonWorkload struct {
	name string
	hot  bool
	// sweepsPer10s sizes the timed phase (per client).
	sweepsPer10s float64
	clients      int

	d *daemonProc
	// cold: fixed holds variants of one sweep, each submitted once (coldNext
	// is the first unused one); held holds seed-salted sweeps.
	// hot: fixed[0] and held[0] are pre-filled and resubmitted.
	fixed, held []sweepBody
	coldNext    int
	coldCanon   uint64 // hash of the first cold sweep's results, EndTime cleared
	nHeld       int    // held-out sweeps per client
	// served remembers what the daemon answered for fixed[0] and held[0]
	// (hot: the pre-fill answers every resubmission must repeat; cold: the
	// first answers), verified against direct runs after the timed phases.
	servedFixed, servedHeld []byte
}

func (w *daemonWorkload) Name() string { return w.name }

func (w *daemonWorkload) fixedSweeps(rc *runCtx) int { return rc.scaled(w.sweepsPer10s) }

// heldSweeps is the held-out phase's size: an eighth of the timed one.
func (w *daemonWorkload) heldSweeps(rc *runCtx) int {
	return max(w.fixedSweeps(rc)/8, 1)
}

func (w *daemonWorkload) setup(rc *runCtx) error {
	if rc.l2bmd == "" {
		return errors.New("bench: daemon workloads need -l2bmd <path to the built cmd/l2bmd binary>")
	}
	w.nHeld = w.heldSweeps(rc)
	nFixed, nHeld := 1, 1
	if !w.hot {
		// Twice the timed phase's worth: the traced run makes two passes,
		// and a variant submitted twice would hit the cache.
		nFixed, nHeld = 2*w.fixedSweeps(rc), w.nHeld
	}
	w.fixed, w.held, w.coldNext, w.coldCanon = nil, nil, 0, 0
	for i := 0; i < nFixed; i++ {
		s, err := makeSweep("fixed", i, rc.smoke)
		if err != nil {
			return err
		}
		w.fixed = append(w.fixed, s)
	}
	for i := 0; i < nHeld; i++ {
		s, err := makeSweep(fmt.Sprintf("seed%d/%d", rc.seed, i), 0, rc.smoke)
		if err != nil {
			return err
		}
		w.held = append(w.held, s)
	}
	d, err := startDaemon(rc.l2bmd, rc.scratch(w.name))
	if err != nil {
		return err
	}
	w.d = d
	w.servedFixed, w.servedHeld = nil, nil
	if w.hot {
		// Pre-fill: one cold submission puts the sweep's points in the
		// cache; every later submission is a hit. The held-out sweep is
		// pre-filled when its phase starts, not here: its cost follows the
		// seed, and set-up time must not.
		if w.servedFixed, err = w.prefill(w.fixed[0]); err != nil {
			return err
		}
	}
	return nil
}

func (w *daemonWorkload) prefill(sw sweepBody) ([]byte, error) {
	c := newClient(w.d.base)
	defer c.close()
	data, _, err := c.roundTrip(sw.body, nil, span{}, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: pre-fill: %w", err)
	}
	return data, nil
}

func (w *daemonWorkload) teardown() {
	if w.d == nil {
		return
	}
	w.d.stop()
	_ = os.RemoveAll(w.d.dir) // scratch; a leftover is harmless and ignored by git
	w.d = nil
}

// peakRSSKB is l2bmd's high-water mark, not the load generator's.
func (w *daemonWorkload) peakRSSKB() (int64, error) { return procStatusKB(w.d.pid(), "VmHWM") }

func (w *daemonWorkload) runFixed(n int, tr *tracer) passResult {
	sweeps := w.fixed
	if !w.hot {
		sweeps = w.fixed[w.coldNext:]
		n = min(n, len(sweeps))
		w.coldNext += n
	}
	return w.phase(sweeps, n, &w.servedFixed, true, tr)
}

func (w *daemonWorkload) firstSpec() exp.HybridSpec { return w.fixed[0].specs[0] }

func (w *daemonWorkload) runHeld(tr *tracer) passResult {
	if w.hot {
		var err error
		if w.servedHeld, err = w.prefill(w.held[0]); err != nil {
			out := passResult{attempted: 1}
			out.fail("%s: held-out sweep: %v", w.name, err)
			return out
		}
	}
	out := w.phase(w.held, w.nHeld, &w.servedHeld, false, tr)
	w.verify(&out)
	return out
}

// phase has every client submit n sweeps: on the cold workload sweep k of
// the list, once, by the single client; on the hot workload the one
// pre-filled sweep, n times per client. *served is the first answer: the
// pre-fill's on the hot workload, which every answer must repeat; set here
// on the cold one, where identical says the list is variants of one sweep
// and every answer must match the first beyond EndTime.
func (w *daemonWorkload) phase(sweeps []sweepBody, n int, served *[]byte, identical bool, tr *tracer) passResult {
	out := passResult{counts: counts{}, extra: map[string]float64{}}
	var done atomic.Int64
	watch := startRSSWatch(w.d.pid(), &done)
	var mu sync.Mutex // guards out and the timing slices across clients
	var timings []reqTiming
	var hits, points int
	root := tr.start(span{}, "workload", 0)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(w.d.base)
			defer c.close()
			for k := 0; k < n; k++ {
				mu.Lock()
				out.attempted++
				mu.Unlock()
				if watch.tripped.Load() {
					mu.Lock()
					out.fail("%s: l2bmd RSS passed %d MiB; remaining sweeps abandoned", w.name, rssLimitKB>>10)
					mu.Unlock()
					continue
				}
				sw := sweeps[0]
				if !w.hot {
					sw = sweeps[k]
				}
				id := int64(ci*n + k + 1)
				reqSpan := tr.start(root, "request", id)
				data, tm, err := c.roundTrip(sw.body, tr, reqSpan, id)
				reqSpan.end()
				done.Add(1)
				mu.Lock()
				switch {
				case err != nil:
					var se *statusError
					if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
						out.extra["serve.rejected_429"]++
					}
					out.fail("%s client %d sweep %d: %v", w.name, ci, k, err)
				case w.hot && !bytes.Equal(data, *served):
					out.fail("%s client %d sweep %d: result bytes differ from the pre-fill answer", w.name, ci, k)
				case !w.hot && tm.cacheHits != 0:
					out.fail("%s sweep %d: %d cache hit(s) on a sweep that must miss", w.name, k, tm.cacheHits)
				case w.hot && tm.cacheHits != tm.points:
					out.fail("%s client %d sweep %d: %d of %d points hit the cache", w.name, ci, k, tm.cacheHits, tm.points)
				default:
					timings = append(timings, tm)
					hits += tm.cacheHits
					points += tm.points
					out.extra["serve.result_bytes"] = float64(len(data))
					if *served == nil {
						*served = data
					}
					if !w.hot {
						sum, ok := w.harvestCold(&out, data, k)
						switch {
						case !ok || !identical:
						case w.coldCanon == 0:
							w.coldCanon = sum
						case sum != w.coldCanon:
							out.fail("%s sweep %d: results differ from the first sweep of the same traffic", w.name, k)
						}
					}
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	out.wall = time.Since(start)
	root.end()
	out.extra["serve.rss_growth_kb_per_sweep"] = watch.stop()
	if points > 0 {
		out.extra["serve.cache_hit_ratio"] = float64(hits) / float64(points)
	}
	var sub, queue, wait, res []float64
	for _, tm := range timings {
		out.sweepMS = append(out.sweepMS, tm.total)
		sub = append(sub, tm.submit)
		queue = append(queue, tm.queue)
		wait = append(wait, tm.wait)
		res = append(res, tm.result)
	}
	out.extra["serve.submit_ms"] = median(sub)
	out.extra["serve.queue_wait_ms"] = median(queue)
	out.extra["serve.wait_ms"] = median(wait)
	out.extra["serve.result_ms"] = median(res)
	if w.hot {
		out.digest = fnv64(*served)
		out.units = 1
	} else if identical {
		out.digest = w.coldCanon
	}
	return out
}

// harvestCold applies the per-point predicates to a freshly simulated sweep
// and, for the phase's first sweep, folds its counters in. It returns a hash
// of the sweep's results with EndTime cleared: the variants of one sweep
// differ in their drain horizon, which a drained run reports as its EndTime
// and which changes nothing else. Held-out sweeps differ from each other, so
// their digest chains every sweep's bytes in list order (one client: arrival
// order is list order).
func (w *daemonWorkload) harvestCold(out *passResult, data []byte, k int) (uint64, bool) {
	results, err := decodeResults(data)
	if err != nil {
		out.fail("%s sweep %d: %v", w.name, k, err)
		return 0, false
	}
	for i, r := range results {
		if err := checkResult(r); err != nil {
			out.fail("%s sweep %d point %d: %v", w.name, k, i, err)
		}
		if k == 0 {
			out.counts.addResult(r)
			out.units += float64(r.PoolGets)
			out.points++
		}
		r.EndTime = 0
	}
	out.digest = out.digest*1099511628211 ^ fnv64(data)
	canon, err := exp.MarshalResults(results)
	if err != nil {
		out.fail("%s sweep %d: %v", w.name, k, err)
		return 0, false
	}
	return fnv64(canon), true
}

// verify holds the daemon's bytes to exp.MarshalResults of the same specs
// run directly, for the first fixed and the first held-out sweep. It runs
// after both timed phases, off every clock.
func (w *daemonWorkload) verify(out *passResult) {
	for _, v := range []struct {
		what   string
		sweep  sweepBody
		served []byte
	}{{"fixed", w.fixed[0], w.servedFixed}, {"held-out", w.held[0], w.servedHeld}} {
		out.attempted++
		if v.served == nil {
			out.fail("%s: no %s answer to verify", w.name, v.what)
			continue
		}
		want, results, err := v.sweep.direct()
		if err != nil {
			out.fail("%s: direct run of the %s sweep: %v", w.name, v.what, err)
			continue
		}
		if !bytes.Equal(want, v.served) {
			out.fail("%s: daemon bytes for the %s sweep differ from exp.MarshalResults of a direct run", w.name, v.what)
		}
		for i, r := range results {
			if err := checkResult(r); err != nil {
				out.fail("%s: %s sweep point %d: %v", w.name, v.what, i, err)
			}
		}
	}
}
