package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// checkpointGrid is a small multi-policy sweep for the resume suite.
func checkpointGrid() []HybridSpec {
	var specs []HybridSpec
	for _, policy := range []string{"L2BM", "DT"} {
		for _, load := range []float64{0.3, 0.6} {
			specs = append(specs, HybridSpec{
				Name:     "ckpt-suite",
				Policy:   policy,
				Scale:    ScaleTiny,
				RDMALoad: 0.4,
				TCPLoad:  load,
			})
		}
	}
	return specs
}

// resumeDir opens a disk-backed store in a fresh directory — what -resume
// hands the harness.
func resumeDir(t *testing.T) *ResultCache {
	t.Helper()
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// stored counts the entries in cache's directory.
func stored(t *testing.T, cache *ResultCache) int {
	t.Helper()
	n, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// assertSameResults demands got equal want point by point, by fingerprint
// and by the canonical bytes a daemon would serve.
func assertSameResults(t *testing.T, what string, got, want []*Result) {
	t.Helper()
	for i := range want {
		if shardFingerprint(got[i]) != shardFingerprint(want[i]) {
			t.Errorf("point %d: %s output diverged from the uninterrupted run", i, what)
		}
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("point %d: %s result marshals to different bytes than the uninterrupted run's", i, what)
		}
	}
}

// TestCheckpointResumeByteIdentical is the crash-safety acceptance test:
// kill a sweep partway (external cancellation stands in for SIGKILL — the
// directory only ever holds whole, fsynced, renamed entries either way),
// resume it from a fresh handle on the same directory, and the resumed
// sweep's output must be byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	specs := checkpointGrid()

	ref := &Harness{Workers: 2}
	want, err := ref.runAll(specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := resumeDir(t)

	// "Kill" the first attempt after the first emitted point.
	ctx, cancel := context.WithCancel(context.Background())
	killed := &Harness{Workers: 1, Ctx: ctx, Cache: cache}
	_, err = killed.runAll(specs, func(i int, r *Result) { cancel() })
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if n := stored(t, cache); n == 0 || n >= len(specs) {
		t.Fatalf("after interruption: %d/%d points stored, want a strict partial", n, len(specs))
	}

	resumed := &Harness{Workers: 2, Cache: &ResultCache{Dir: cache.Dir}}
	got, err := resumed.runAll(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "resumed", got, want)
	if n := stored(t, cache); n != len(specs) {
		t.Errorf("after resume: %d/%d points stored", n, len(specs))
	}
	if hits, ran := resumed.RestoredPoints(), resumed.TotalEvents(); hits == 0 || hits >= uint64(len(specs)) || ran == 0 {
		t.Errorf("resumed harness restored %d of %d points and simulated %d events, want a strict partial of each", hits, len(specs), ran)
	}
}

// TestCheckpointRestoreShortCircuits proves restored points are served from
// the store, not silently recomputed: a doctored stored result surfaces
// verbatim in the resumed sweep, billed as restored and not as simulated.
func TestCheckpointRestoreShortCircuits(t *testing.T) {
	specs := checkpointGrid()
	cache := resumeDir(t)
	const marker = 123_456_789
	raw, err := json.Marshal(&Result{Policy: "L2BM", Events: marker})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(specs[2], raw); err != nil {
		t.Fatal(err)
	}

	h := &Harness{Workers: 2, Cache: &ResultCache{Dir: cache.Dir}}
	got, err := h.runAll(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Events != marker {
		t.Errorf("point 2 was recomputed (Events=%d), want restored marker %d", got[2].Events, marker)
	}
	if got[2].Spec.Policy != specs[2].Policy {
		t.Errorf("restored point lost its spec: %+v", got[2].Spec)
	}
	if h.RestoredPoints() != 1 || h.TotalPoints() != uint64(len(specs)) {
		t.Errorf("harness counts %d restored of %d points, want 1 of %d", h.RestoredPoints(), h.TotalPoints(), len(specs))
	}
	if want := got[0].Events + got[1].Events + got[3].Events; h.TotalEvents() != want {
		t.Errorf("TotalEvents = %d, want the %d of the three points that ran (the restored point cost none)", h.TotalEvents(), want)
	}
}

// resumeOverDamage fills a directory with the suite's grid, lets damage ruin
// point 1's entry, and resumes: exactly that point must be recomputed, the
// output must match the undamaged run, and the entry must be whole again.
func resumeOverDamage(t *testing.T, damage func(t *testing.T, cache *ResultCache, specs []HybridSpec)) {
	t.Helper()
	specs := checkpointGrid()
	cache := resumeDir(t)
	full := &Harness{Workers: 1, Cache: cache}
	want, err := full.runAll(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	damage(t, cache, specs)

	resumed := &Harness{Workers: 1, Cache: &ResultCache{Dir: cache.Dir}}
	got, err := resumed.runAll(specs, nil)
	if err != nil {
		t.Fatalf("a damaged entry broke the resume: %v", err)
	}
	assertSameResults(t, "resumed", got, want)
	if hits := resumed.RestoredPoints(); hits != uint64(len(specs)-1) {
		t.Errorf("restored %d points, want every one but the damaged (%d)", hits, len(specs)-1)
	}
	healed, ok := (&ResultCache{Dir: cache.Dir}).Lookup(specs[1])
	if w, _ := json.Marshal(want[1]); !ok || !bytes.Equal(healed, w) {
		t.Errorf("the recomputed point did not replace the damaged entry (ok=%v)", ok)
	}
}

// TestCheckpointToleratesTornTail: an entry cut short (a copy interrupted, a
// disk that filled — Put's fsync-then-rename never publishes one itself)
// costs that point a re-run, never the resume and never a misread.
func TestCheckpointToleratesTornTail(t *testing.T) {
	resumeOverDamage(t, func(t *testing.T, cache *ResultCache, specs []HybridSpec) {
		path := cache.path(mustKey(t, specs[1]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointRefusesForeignFile: another point's entry moved into place
// (a renamed or hand-copied file) names the wrong key in its header and must
// never be restored as this point's result.
func TestCheckpointRefusesForeignFile(t *testing.T) {
	resumeOverDamage(t, func(t *testing.T, cache *ResultCache, specs []HybridSpec) {
		foreign, err := os.ReadFile(cache.path(mustKey(t, specs[2])))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cache.path(mustKey(t, specs[1])), foreign, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointIneligibleSpecsRefuse: funcs don't serialize — sweeps
// carrying them must error out before running anything when a directory was
// asked for, and simply run next to a memory-only store.
func TestCheckpointIneligibleSpecsRefuse(t *testing.T) {
	specs := checkpointGrid()
	specs[1].Hooks = &RunHooks{PostBuild: func(*topo.Cluster) {}}
	h := &Harness{Cache: resumeDir(t)}
	if _, err := h.runAll(specs, nil); err == nil || !strings.Contains(err.Error(), "Hooks") {
		t.Errorf("Hooks-carrying sweep checkpointed (err=%v)", err)
	}

	traced := &Harness{Cache: resumeDir(t), Trace: &TraceSpec{}}
	if _, err := traced.runAll(checkpointGrid(), nil); err == nil ||
		!strings.Contains(err.Error(), "Trace") {
		t.Errorf("traced sweep checkpointed (err=%v)", err)
	}

	inMemory := &Harness{Cache: &ResultCache{}}
	if _, err := inMemory.runAll(specs, nil); err != nil {
		t.Errorf("memory-only store refused a grid with an unstorable point: %v", err)
	}
	if inMemory.RestoredPoints() != 0 || inMemory.TotalPoints() != uint64(len(specs)) {
		t.Errorf("memory-only first pass: %d restored of %d", inMemory.RestoredPoints(), inMemory.TotalPoints())
	}
}

// TestResumePersistsOutOfOrder: a finished point is on disk the moment its
// worker is done with it, not once every lower-index point has been
// collated. Point 0 is made far longer than the rest and the sweep is
// killed as soon as the directory holds anything: something is stored
// although point 0 never finished.
func TestResumePersistsOutOfOrder(t *testing.T) {
	specs := checkpointGrid()
	specs[0].WindowOverride = 400 * sim.Millisecond // 200x the others
	cache := resumeDir(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		for ctx.Err() == nil {
			if n, _ := cache.Len(); n > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	h := &Harness{Workers: 2, Ctx: ctx, Cache: cache}
	if _, err := h.runAll(specs, nil); err == nil {
		t.Fatal("point 0 finished before the kill; lengthen it")
	}
	cancel()
	<-watcher

	if n := stored(t, cache); n == 0 {
		t.Error("nothing was stored while point 0 was still running")
	}
	if _, ok := (&ResultCache{Dir: cache.Dir}).Lookup(specs[0]); ok {
		t.Error("point 0 is stored although the sweep was killed under it")
	}
}
