package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"l2bm/internal/core"
)

var tierSpec = HybridSpec{Name: "tier", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}

// tierEntry returns tierSpec's key, a valid Result body for it and the
// exact file contents Put writes.
func tierEntry(t testing.TB) (key string, body, file []byte) {
	t.Helper()
	key, err := CacheKey(tierSpec)
	if err != nil {
		t.Fatal(err)
	}
	body, err = json.Marshal(&Result{Policy: "DT", RDMASlowdowns: []float64{1, 1.25}, Events: 7})
	if err != nil {
		t.Fatal(err)
	}
	return key, body, entryFile(CheckpointVersion, core.RegistryVersion(), key, body)
}

func entryFile(version int, registry, key string, body []byte) []byte {
	hdr, _ := json.Marshal(cacheHeader{Version: version, Registry: registry, Key: key})
	return []byte(string(hdr) + "\n" + string(body) + "\n")
}

// hostileEntries is every way a cache file can be wrong that the hit path —
// which serves bytes and decodes nothing — must catch when it loads one.
func hostileEntries(t testing.TB) map[string][]byte {
	key, body, file := tierEntry(t)
	reg := core.RegistryVersion()
	return map[string][]byte{
		"empty file":             {},
		"header only":            file[:bytes.IndexByte(file, '\n')+1],
		"truncated body":         file[:len(file)-9],
		"truncated, terminated":  append(append([]byte(nil), file[:len(file)-9]...), '\n'),
		"no final newline":       file[:len(file)-1],
		"another key":            entryFile(CheckpointVersion, reg, "0123456789abcdef", body),
		"another version":        entryFile(CheckpointVersion+1, reg, key, body),
		"another registry":       entryFile(CheckpointVersion, "0123456789abcdef", key, body),
		"header not JSON":        append([]byte("point\n"), body...),
		"trailing garbage":       append(append([]byte(nil), file...), "garbage\n"...),
		"trailing second result": append(append([]byte(nil), file...), append(body, '\n')...),
		"trailing blank line":    append(append([]byte(nil), file...), '\n'),
		"leading space":          entryFile(CheckpointVersion, reg, key, append([]byte(" "), body...)),
		"trailing space":         entryFile(CheckpointVersion, reg, key, append(append([]byte(nil), body...), ' ')),
		"body not an object":     entryFile(CheckpointVersion, reg, key, []byte(`null`)),
		"body of another type":   entryFile(CheckpointVersion, reg, key, []byte(`{"Policy":5}`)),
		"body with a raw NUL":    entryFile(CheckpointVersion, reg, key, []byte("{\"Policy\":\"D\x00T\"}")),
	}
}

// TestCacheHostileEntries: a damaged or foreign entry is a miss — the point
// re-runs and Put overwrites it — and never a served byte.
func TestCacheHostileEntries(t *testing.T) {
	key, body, _ := tierEntry(t)
	for name, data := range hostileEntries(t) {
		t.Run(name, func(t *testing.T) {
			cache, err := NewResultCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cache.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if raw, ok := cache.LookupKey(key); ok {
				t.Fatalf("served %q from a hostile entry", raw)
			}
			if _, _, ok := cache.Get(tierSpec); ok {
				t.Fatal("Get hit where Lookup missed")
			}
			if err := cache.Put(tierSpec, body); err != nil {
				t.Fatalf("Put over the hostile entry: %v", err)
			}
			reopened := &ResultCache{Dir: cache.Dir}
			if raw, ok := reopened.LookupKey(key); !ok || !bytes.Equal(raw, body) {
				t.Errorf("after the overwrite: ok=%v raw=%q", ok, raw)
			}
		})
	}

	t.Run("directory in place of the file", func(t *testing.T) {
		cache, err := NewResultCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(cache.path(key), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.LookupKey(key); ok {
			t.Fatal("a directory was a hit")
		}
		// The rename cannot replace a directory, so the disk tier refuses
		// the entry — and memory must not hold what disk refused.
		if err := cache.Put(tierSpec, body); err == nil {
			t.Fatal("Put over a directory succeeded")
		}
		if raw, ok := cache.LookupKey(key); ok {
			t.Fatalf("memory tier serves %q, which the disk tier refused", raw)
		}
		leftovers, err := os.ReadDir(cache.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range leftovers {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Errorf("failed Put left %s behind", e.Name())
			}
		}
	})
}

// FuzzCacheEntry feeds arbitrary file contents to the disk-load path. The
// hostile table is the seed corpus, so plain `go test` replays it. A hit is
// allowed only for a file that is exactly what Put would have written
// around the served bytes.
func FuzzCacheEntry(f *testing.F) {
	key, _, file := tierEntry(f)
	f.Add(file)
	for _, data := range hostileEntries(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cache := &ResultCache{Dir: t.TempDir()}
		if err := os.WriteFile(cache.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		raw, ok := cache.LookupKey(key)
		if !ok {
			return
		}
		header, rest, _ := bytes.Cut(data, []byte{'\n'})
		var hdr cacheHeader
		if json.Unmarshal(header, &hdr) != nil || hdr != (cacheHeader{CheckpointVersion, core.RegistryVersion(), key}) {
			t.Fatalf("hit under header %q", header)
		}
		if !bytes.Equal(rest, append(append([]byte(nil), raw...), '\n')) {
			t.Fatalf("served %q out of %q", raw, rest)
		}
		if raw[0] != '{' || json.Unmarshal(raw, new(Result)) != nil {
			t.Fatalf("served bytes that are not a Result object: %q", raw)
		}
	})
}

// TestMemoryTierServesWithoutDisk: Put fills the memory tier, the first disk
// hit of another handle fills that handle's, and from then on the file is
// not needed — the hit path touches no disk.
func TestMemoryTierServesWithoutDisk(t *testing.T) {
	key, body, _ := tierEntry(t)
	writer, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(tierSpec, body); err != nil {
		t.Fatal(err)
	}
	reader := &ResultCache{Dir: writer.Dir}
	first, ok := reader.LookupKey(key)
	if !ok || !bytes.Equal(first, body) {
		t.Fatalf("disk hit: ok=%v raw=%q", ok, first)
	}
	if err := os.Remove(writer.path(key)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*ResultCache{"filled by Put": writer, "filled by a disk hit": reader} {
		raw, ok := c.LookupKey(key)
		if !ok || !bytes.Equal(raw, body) {
			t.Errorf("%s: ok=%v raw=%q", name, ok, raw)
		}
	}
	// Shared, not copied: two hits return the same backing array.
	again, _ := reader.LookupKey(key)
	if &again[0] != &first[0] {
		t.Error("a memory-tier hit copied the bytes")
	}
	if _, ok := (&ResultCache{Dir: writer.Dir}).LookupKey(key); ok {
		t.Error("a fresh handle hit an entry whose file is gone")
	}
}

// TestMemoryTierBound: the tier holds at most memTierBytes, drops the least
// recently used entry first, refuses an entry larger than itself, and
// accounts a replaced entry by its new size.
func TestMemoryTierBound(t *testing.T) {
	c := &ResultCache{}
	const chunk = 1 << 20
	n := memTierBytes/chunk + 4 // four over: exactly the four coldest go
	for i := 0; i < n; i++ {
		c.memPut(fmt.Sprint(i), make([]byte, chunk))
		if i == 4 {
			// Touch entry 0: it is now younger than 1..4.
			if _, ok := c.memGet("0"); !ok {
				t.Fatal("entry 0 missing while the tier is nearly empty")
			}
		}
	}
	if c.memBytes > memTierBytes || c.memBytes != len(c.mem)*chunk || c.lru.Len() != len(c.mem) {
		t.Fatalf("tier holds %d B in %d entries (%d listed), bound %d", c.memBytes, len(c.mem), c.lru.Len(), memTierBytes)
	}
	if _, ok := c.memGet("0"); !ok {
		t.Error("the recently used entry was evicted before colder ones")
	}
	for _, cold := range []string{"1", "2", "3", "4"} {
		if _, ok := c.memGet(cold); ok {
			t.Errorf("cold entry %s survived %d MiB of younger ones", cold, n)
		}
	}
	if _, ok := c.memGet(fmt.Sprint(n - 1)); !ok {
		t.Error("the newest entry is not resident")
	}

	before := c.memBytes
	c.memPut("huge", make([]byte, memTierBytes+1))
	if _, ok := c.memGet("huge"); ok || c.memBytes != before {
		t.Error("an entry larger than the tier was admitted")
	}
	c.memPut(fmt.Sprint(n-1), make([]byte, 10))
	if c.memBytes != before-chunk+10 {
		t.Errorf("replacing an entry: %d B resident, want %d", c.memBytes, before-chunk+10)
	}
}

// TestMemoryOnlyCache: Dir == "" is a store without a disk tier. Put and Get
// round-trip through the LRU alone, Put honours the tier's bound, and no
// file appears anywhere — the zero value used to publish point-<key>.json
// into the process's working directory.
func TestMemoryOnlyCache(t *testing.T) {
	key, body, _ := tierEntry(t)
	c := &ResultCache{}
	if _, ok := c.LookupKey(key); ok {
		t.Fatal("hit on an empty memory-only cache")
	}
	if err := c.Put(tierSpec, body); err != nil {
		t.Fatal(err)
	}
	raw, res, ok := c.Get(tierSpec)
	if !ok || !bytes.Equal(raw, body) || res.Events != 7 || !res.Restored {
		t.Fatalf("round trip: ok=%v raw=%q res=%+v", ok, raw, res)
	}
	if _, ok := (&ResultCache{}).LookupKey(key); ok {
		t.Error("a second memory-only cache sees the first one's entry")
	}

	// The bound holds through Put: fill past it with distinct points.
	const chunk = 1 << 20
	big := append(append([]byte(`{"Policy":"`), bytes.Repeat([]byte{'x'}, chunk)...), `"}`...)
	for i := 0; i < memTierBytes/chunk+4; i++ {
		spec := tierSpec
		spec.SeedSalt = fmt.Sprint(i)
		if err := c.Put(spec, big); err != nil {
			t.Fatal(err)
		}
	}
	if c.memBytes > memTierBytes {
		t.Errorf("memory-only tier holds %d B, bound %d", c.memBytes, memTierBytes)
	}
	if _, ok := c.LookupKey(key); ok {
		t.Error("the coldest entry survived a full tier of younger ones")
	}

	if n, err := c.Len(); n != 0 || err != nil {
		t.Errorf("Len = %d, %v on a cache with no directory", n, err)
	}
	litter := c.path(key) // relative: where the old Put renamed its temp file to
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Errorf("memory-only Put left %s in the working directory (stat err %v)", litter, err)
		os.Remove(litter)
	}
}

// TestLookupMemHitAllocs: a memory-tier hit costs the key derivation and
// nothing else — no read, no decode, no copy.
func TestLookupMemHitAllocs(t *testing.T) {
	_, body, _ := tierEntry(t)
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(tierSpec, body); err != nil {
		t.Fatal(err)
	}
	keyAllocs := testing.AllocsPerRun(200, func() {
		if _, err := CacheKey(tierSpec); err != nil {
			t.Fatal(err)
		}
	})
	hitAllocs := testing.AllocsPerRun(200, func() {
		if _, ok := cache.LookupKey(mustKey(t, tierSpec)); !ok {
			t.Fatal("miss on an entry just put")
		}
	})
	// Under -race sync.Pool drops items at random, so fmt's printers make
	// either average land one higher in about one run in five.
	slack := 0.0
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				slack = 1
			}
		}
	}
	if hitAllocs > keyAllocs+slack {
		t.Errorf("a memory-tier hit allocates %.0f times, the key derivation alone %.0f", hitAllocs, keyAllocs)
	}
}

// TestPointMemHitAllocs: Point takes the key its caller derived, so a
// memory-tier hit through it allocates nothing at all, and never runs the
// point.
func TestPointMemHitAllocs(t *testing.T) {
	key, body, _ := tierEntry(t)
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(tierSpec, body); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(context.Context, HybridSpec) (*Result, error) {
		t.Fatal("a hit ran the point")
		return nil, nil
	}
	allocs := testing.AllocsPerRun(200, func() {
		if raw, res, err := cache.Point(ctx, key, tierSpec, run); err != nil || res != nil || !bytes.Equal(raw, body) {
			t.Fatalf("Point = %q, %v, %v; want the stored bytes", raw, res, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a memory-tier hit through Point allocates %.0f times, want 0", allocs)
	}
}

// lookupFixture is a disk-backed cache holding a real point's bytes (the Fig. 7
// headline point, ~20 kB of JSON) under tierSpec.
func lookupFixture(tb testing.TB) *ResultCache {
	tb.Helper()
	res, err := RunHybrid(HybridSpec{Name: "bench-cache", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	cache, err := NewResultCache(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := cache.Put(tierSpec, body); err != nil {
		tb.Fatal(err)
	}
	return cache
}

// TestLookupDiskHitAllocs: the first hit after a restart reads the file,
// checks its header and decodes the body once, to validate it — 67
// allocations measured on a real point's ~20 kB, 84 allowed. A second decode
// (the hit path handing out structs again) reads 103.
func TestLookupDiskHitAllocs(t *testing.T) {
	cache := lookupFixture(t)
	allocs := testing.AllocsPerRun(50, func() {
		cold := &ResultCache{Dir: cache.Dir}
		if _, ok := cold.LookupKey(mustKey(t, tierSpec)); !ok {
			t.Fatal("miss on an entry on disk")
		}
	})
	t.Logf("%.0f allocations per disk hit", allocs)
	if allocs > 84 {
		t.Errorf("a disk hit allocates %.0f times, want <= 84 (measured 67)", allocs)
	}
}

// TestRegistryVersionMemo: the version Register keeps is the hash of the
// registry, and a policy registered after the first key was derived still
// changes it, and with it every cache key, so entries stored before the
// registration miss on both tiers.
//
// core's registry has no Unregister: a late registration would leak into
// every later test of this binary (and panic as a duplicate under -count
// 2), so it happens in a child process running only this test.
func TestRegistryVersionMemo(t *testing.T) {
	const inChild = "L2BM_TEST_LATE_REGISTRATION"
	if os.Getenv(inChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRegistryVersionMemo$", "-test.count=1")
		cmd.Env = append(os.Environ(), inChild+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}

	_, body, _ := tierEntry(t)
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(tierSpec, body); err != nil {
		t.Fatal(err)
	}
	before, keyBefore := core.RegistryVersion(), mustKey(t, tierSpec)
	if again := core.RegistryVersion(); again != before {
		t.Fatalf("RegistryVersion is not stable: %s then %s", before, again)
	}
	if _, ok := cache.LookupKey(keyBefore); !ok {
		t.Fatal("miss on an entry just put")
	}

	core.Register("late-registration", func() core.Policy { return core.MustNewPolicy("DT") })

	after := core.RegistryVersion()
	if after == before {
		t.Fatal("a late registration did not change the registry version")
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(core.RegisteredPolicies(), ",")))
	if cold := fmt.Sprintf("%016x", h.Sum64()); cold != after {
		t.Errorf("kept version %s, derived from scratch %s", after, cold)
	}
	keyAfter := mustKey(t, tierSpec)
	if keyAfter == keyBefore {
		t.Error("a late registration did not change the cache key")
	}
	if _, ok := cache.LookupKey(keyAfter); ok {
		t.Error("an entry stored under the old registry still hits")
	}
}

func mustKey(t testing.TB, spec HybridSpec) string {
	t.Helper()
	key, err := CacheKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCacheConcurrentUse hammers one handle from several goroutines (run
// under -race): overlapping Puts of the same and of different keys, Lookups
// that hit either tier or miss.
func TestCacheConcurrentUse(t *testing.T) {
	cache, err := NewResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := tierEntry(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				spec := tierSpec
				spec.SeedSalt = fmt.Sprint(k % 5)
				key, _ := CacheKey(spec)
				if raw, ok := cache.LookupKey(key); ok && !bytes.Equal(raw, body) {
					t.Errorf("goroutine %d: hit served %q", g, raw)
				}
				if (g+k)%3 == 0 {
					if err := cache.Put(spec, body); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n, err := cache.Len(); err != nil || n != 5 {
		t.Errorf("Len = %d, %v; want 5, nil", n, err)
	}
}

// TestWriteRawResults: the splice writes exactly RawResultsLen bytes, the
// canonical envelope, for every envelope shape.
func TestWriteRawResults(t *testing.T) {
	for _, tc := range []struct {
		raws []json.RawMessage
		want string
	}{
		{nil, "{\"points\":[]}\n"},
		{[]json.RawMessage{[]byte(`{"a":1}`)}, "{\"points\":[{\"a\":1}]}\n"},
		{[]json.RawMessage{[]byte(`{"a":1}`), []byte(`{}`), []byte(`{"b":[2]}`)}, "{\"points\":[{\"a\":1},{},{\"b\":[2]}]}\n"},
	} {
		var buf bytes.Buffer
		if err := WriteRawResults(&buf, tc.raws); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("WriteRawResults wrote %q, want %q", buf.String(), tc.want)
		}
		if got := RawResultsLen(tc.raws); got != len(tc.want) {
			t.Errorf("RawResultsLen = %d, want %d", got, len(tc.want))
		}
	}
}

// BenchmarkCacheLookup prices a hit on each tier: mem is the steady state of
// a hot daemon, disk what the first hit after a restart pays (read, header
// check, one validating decode).
func BenchmarkCacheLookup(b *testing.B) {
	cache := lookupFixture(b)
	b.Run("mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := cache.LookupKey(mustKey(b, tierSpec)); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold := &ResultCache{Dir: cache.Dir}
			if _, ok := cold.LookupKey(mustKey(b, tierSpec)); !ok {
				b.Fatal("miss")
			}
		}
	})
}
