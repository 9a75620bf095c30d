package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"l2bm/internal/core"
)

// TestCacheKeyCanonicalization: the cache key must depend only on what a
// spec means, never on how it was written down — and on every field that
// changes results.
func TestCacheKeyCanonicalization(t *testing.T) {
	// Two wire encodings of the same spec: different field order, zero-valued
	// optionals spelled out vs omitted.
	verbose := []byte(`{"specs":[{"TCPLoad":0.4,"Policy":"DT","Scale":"tiny","Name":"p0","RDMALoad":0.4,"SeedSalt":"","Shards":0,"Fidelity":"","InterRackOnly":false}]}`)
	terse := []byte(`{"specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4}]}`)
	keyOf := func(data []byte) string {
		req, err := ParseSweepRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		key, err := CacheKey(req.Specs[0])
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	if a, b := keyOf(verbose), keyOf(terse); a != b {
		t.Errorf("equivalent wire specs got different cache keys: %s vs %s", a, b)
	}

	base := HybridSpec{Name: "p0", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}
	baseKey, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*HybridSpec){
		"SeedSalt":       func(s *HybridSpec) { s.SeedSalt = "rerun" },
		"Policy":         func(s *HybridSpec) { s.Policy = "L2BM" },
		"Fidelity":       func(s *HybridSpec) { s.Fidelity = FidelityHybrid },
		"Scale":          func(s *HybridSpec) { s.Scale = ScaleSmall },
		"TCPLoad":        func(s *HybridSpec) { s.TCPLoad = 0.6 },
		"Incast":         func(s *HybridSpec) { s.Incast = incastSpecFor(5) },
		"Faults":         func(s *HybridSpec) { s.Faults = DefaultFaultScenario(ScaleTiny) },
		"Audit":          func(s *HybridSpec) { s.Audit = &AuditSpec{} },
		"WindowOverride": func(s *HybridSpec) { s.WindowOverride = ScaleTiny.Window() / 2 },
		"DrainOverride":  func(s *HybridSpec) { s.DrainOverride = FaultDrain * ScaleTiny.Window() },
		"InterRackOnly":  func(s *HybridSpec) { s.InterRackOnly = true },
	} {
		spec := base
		mutate(&spec)
		key, err := CacheKey(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key == baseKey {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}

	// A canonicalization-version bump must invalidate every key.
	bumped, err := cacheKeyAt(CheckpointVersion+1, base)
	if err != nil {
		t.Fatal(err)
	}
	if bumped == baseKey {
		t.Error("version bump did not change the cache key")
	}

	// Version 5 keys the spec's JSON encoding, so an entry stored under the
	// version-4 field list must miss: its key is not the one asked for now.
	if v4, err := cacheKeyAt(4, base); err != nil || CheckpointVersion != 5 || v4 == baseKey {
		t.Errorf("CheckpointVersion %d: version-4 key %s (%v) vs current %s, want version 5 and a miss", CheckpointVersion, v4, err, baseKey)
	}
	// Every shard count produces the same bytes, so they all share an entry
	// (TestResultBytesShardInvariant is why that is sound).
	for _, shards := range []int{0, 1, 2} {
		sharded := base
		sharded.Shards = shards
		if key, _ := CacheKey(sharded); key != baseKey {
			t.Errorf("Shards %d keyed %s, Shards 0 %s, want equal", shards, key, baseKey)
		}
	}

	// Func-carrying specs have no canonical serialization and must refuse a
	// key rather than collide.
	carrying := base
	carrying.PolicyFactory = func() core.Policy { return nil }
	if _, err := CacheKey(carrying); err == nil {
		t.Error("spec with PolicyFactory got a cache key; want error")
	}
}

// TestCacheKeyPinned holds the key derivation to constants: the init-time
// registry version and one spec's key. A change that moves either orphans
// every stored entry. (TestRegistryVersionMemo's late registration runs in a
// child process, so this process sees the init-time registry.)
func TestCacheKeyPinned(t *testing.T) {
	if got, want := core.RegistryVersion(), "e51f23042d885ab2"; got != want {
		t.Errorf("registry version %s, want %s", got, want)
	}
	spec := HybridSpec{Name: "key-pin", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}
	if got, want := mustKey(t, spec), "51f6f4659e9f93be"; got != want {
		t.Errorf("CacheKey %s, want %s", got, want)
	}
}

// TestResultCacheRoundTrip: Put stores the canonical bytes, Get returns
// exactly those bytes (the byte-identity the daemon's cache-hit path relies
// on) plus a decoded Result with the spec reattached.
func TestResultCacheRoundTrip(t *testing.T) {
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := HybridSpec{Name: "rt", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}
	res := &Result{Policy: "DT", RDMASlowdowns: []float64{1, 1.25}, TCPSlowdowns: []float64{1.5}}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, ok := cache.Get(spec); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := cache.Put(spec, raw); err != nil {
		t.Fatal(err)
	}
	gotRaw, gotRes, ok := cache.Get(spec)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(gotRaw, raw) {
		t.Errorf("cached bytes differ:\nput %s\ngot %s", raw, gotRaw)
	}
	if gotRes.Spec.Name != spec.Name || gotRes.Policy != "DT" || len(gotRes.RDMASlowdowns) != 2 {
		t.Errorf("decoded result wrong: %+v", gotRes)
	}
	if n, err := cache.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1, nil", n, err)
	}

	// A different spec is a miss, not a collision.
	other := spec
	other.SeedSalt = "other"
	if _, _, ok := cache.Get(other); ok {
		t.Error("different spec hit the same entry")
	}

	// An entry whose header names a stale derivation must miss, not
	// misread. Rewrite the stored header with a bumped version.
	key, err := CacheKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.Dir, "point-"+key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data,
		[]byte(`"version":`+jsonInt(CheckpointVersion)),
		[]byte(`"version":`+jsonInt(CheckpointVersion+1)), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("header tamper did not apply")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	// The disk tier is what a restart sees, so the tampered file is observed
	// through a reopened cache; the handle that validated and stored the
	// entry keeps answering from its memory tier.
	reopened, err := NewResultCache(cache.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := reopened.Get(spec); ok {
		t.Error("stale-version entry still served")
	}
	if again, _, ok := cache.Get(spec); !ok || !bytes.Equal(again, raw) {
		t.Error("memory tier lost the entry it validated when the file changed underneath it")
	}

	// Uncacheable specs: Put is a silent no-op, Get a miss.
	carrying := spec
	carrying.PolicyFactory = func() core.Policy { return nil }
	if err := cache.Put(carrying, raw); err != nil {
		t.Errorf("Put of uncacheable spec errored: %v", err)
	}
	if _, _, ok := cache.Get(carrying); ok {
		t.Error("uncacheable spec reported a hit")
	}

	// A nil cache ignores everything.
	var nilCache *ResultCache
	if err := nilCache.Put(spec, raw); err != nil {
		t.Errorf("nil cache Put: %v", err)
	}
	if _, _, ok := nilCache.Get(spec); ok {
		t.Error("nil cache reported a hit")
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestCacheEntriesSurviveReopen: the cache is plain files; reopening the
// directory sees prior entries (the daemon-restart story).
func TestCacheEntriesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	spec := HybridSpec{Name: "reopen", Policy: "L2BM", Scale: ScaleTiny, TCPLoad: 0.3}
	first, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"Policy":"L2BM"}`)
	if err := first.Put(spec, raw); err != nil {
		t.Fatal(err)
	}
	second, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, _, ok := second.Get(spec)
	if !ok || !bytes.Equal(gotRaw, raw) {
		t.Errorf("reopened cache: ok=%v raw=%s", ok, gotRaw)
	}
	// No stray temp files left behind by successful writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
