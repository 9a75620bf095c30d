// Deterministic content-hash result cache: the determinism contract says a
// spec's canonical key fully determines its Result, so a cached point is
// indistinguishable from a recomputed one — and the canonical JSON bytes
// are stored verbatim, so a cache hit serves the exact bytes a fresh run
// would marshal. Keys fold in the spec canonicalization version
// (CheckpointVersion) and a hash of the policy registry, so a schema change
// or a new/renamed policy invalidates every stale entry by missing, never
// by misreading.
//
// Two tiers. Disk is the durable one and the only one a restart sees: one
// file per point, a header line naming version/registry/key, the result
// line after it, written to a temp file, fsynced and renamed — a crash can
// abandon a temp file but never publish a torn entry. In front of it sits a
// byte-bounded in-memory LRU of the same canonical bytes, so a repeat hit
// costs a map lookup: no read, no decode, no copy. Memory only ever holds
// bytes the disk tier accepted (Put fills it after the rename) or bytes it
// validated on the way up from disk. A cache with Dir == "" has no disk
// tier: the LRU is all there is, and it dies with the process.
//
// This is the only spec → Result persistence in the repo: l2bmd -cache DIR,
// l2bmexp -resume DIR and the CLI's in-process reuse of overlapping grids
// (Table II is a column of Fig. 7) are all this one type, so any of them
// warms the others.
package exp

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"l2bm/internal/core"
)

// CheckpointVersion is baked into every cache key and entry header: bump it
// whenever the Result schema or spec canonicalization changes incompatibly,
// so stale entries miss instead of being misread. Version 2 added Fidelity
// to specKey — under version 1 a hybrid-fidelity point hashed identically to
// the packet point of the same grid and could cross-restore. Version 3 made
// Shards 0 a synonym of 1 and counts barrier-task firings in Result.Events, so
// version-2 entries stored at Shards >= 1, or by hybrid runs, under an auditor
// or a fault plan hold the old count. Version 4 counts a replicated tick chain
// once (Result.Events is the same at every shard count, so specKey no longer
// writes Shards at all): version-3 entries stored at Shards >= 2 with an
// incast stream, a fault plan or — never stored, but for the record — a trace
// hold the old count. Version 5 hashes the spec's JSON encoding instead of a
// hand-kept field list (specKey), so a field added later joins the key by
// itself; the encoding differs from the list's, so every version-4 entry
// misses.
const CheckpointVersion = 5

// checkpointIneligible names the first field set on the spec that the store
// cannot hold, or "" when the spec may be stored. A PolicyFactory or Hooks
// func cannot be hashed, and an armed flight recorder cannot be restored. A
// TopoOverride is keyed by the fabric it yields (specKey), so it may be
// stored.
func checkpointIneligible(spec HybridSpec) string {
	switch {
	case spec.PolicyFactory != nil:
		return "PolicyFactory"
	case spec.Hooks != nil:
		return "Hooks"
	case spec.Trace != nil:
		return "Trace"
	}
	return ""
}

// specKey is the spec's canonical form: its wire encoding (json.Marshal, the
// bytes SweepID hashes) with Shards cleared — every shard count produces the
// same bytes, so an entry stored at one serves all the others. A spec with a
// TopoOverride appends the encoding of the fabric it yields (fabric), which
// is what the func decides; the key is then two JSON objects, which no
// plain spec's one object can equal. Two specs with equal keys produce
// byte-identical Results (determinism contract), so the key — not the grid
// that asked, nor its source code — decides what a stored entry matches.
// Every field the encoding carries is in it, one added later included, so a
// forgotten field can cost a miss but never a misread; the fields it cannot
// carry make a spec checkpointIneligible instead.
func specKey(spec HybridSpec) ([]byte, error) {
	spec.Shards = 0
	key, err := json.Marshal(spec)
	if err != nil || spec.TopoOverride == nil {
		return key, err
	}
	fab, err := json.Marshal(spec.fabric())
	return append(key, fab...), err
}

// CacheKey derives the content-hash cache key for one spec: a hash over the
// canonicalization version, the registry version and the spec's canonical
// key (which embeds everything the seed derives from). A spec carrying a
// PolicyFactory, Hooks or an armed flight recorder is uncacheable and
// returns an error.
func CacheKey(spec HybridSpec) (string, error) {
	return cacheKeyAt(CheckpointVersion, spec)
}

// cacheKeyAt is CacheKey at an explicit canonicalization version, split out
// so tests can prove a version bump invalidates.
func cacheKeyAt(version int, spec HybridSpec) (string, error) {
	if why := checkpointIneligible(spec); why != "" {
		return "", fmt.Errorf("exp: cache: spec %q carries %s, which does not serialize", spec.Name, why)
	}
	key, err := specKey(spec)
	if err != nil {
		return "", fmt.Errorf("exp: cache: spec %q: %w", spec.Name, err)
	}
	return hashKey(version, key), nil
}

// hashKey is the cache key of a spec whose canonical key (specKey) is key:
// the hash of "cachev<version> registry=<core.RegistryVersion> " then key.
func hashKey(version int, key []byte) string {
	var buf [64]byte
	prefix := strconv.AppendInt(append(buf[:0], "cachev"...), int64(version), 10)
	prefix = append(append(append(prefix, " registry="...), core.RegistryVersion()...), ' ')
	h := fnv.New64a()
	_, _ = h.Write(prefix)
	_, _ = h.Write(key)
	return fmt.Sprintf("%016x", h.Sum64())
}

// cacheHeader is the first line of every cache entry; a disk load refuses
// entries whose header disagrees with the current derivation.
type cacheHeader struct {
	Version  int    `json:"version"`
	Registry string `json:"registry"`
	Key      string `json:"key"`
}

// memTierBytes bounds the memory tier: the canonical point bytes it holds,
// least recently used out first. A ScaleTiny point is ~2.4 kB, so 64 MiB is
// ~27k points — every grid the scorecard resubmits, with room to spare.
const memTierBytes = 64 << 20

// memEntry is one memory-tier resident: the canonical bytes under key.
type memEntry struct {
	key string
	raw json.RawMessage
}

// ResultCache persists point results under Dir, one entry per cache key,
// behind an in-memory LRU of the hottest entries. A nil cache ignores every
// call (LookupKey and Get always miss). The zero value is ready to use: with
// Dir set it is disk-backed, with Dir == "" it is memory-only — Put fills the
// LRU and nothing ever touches the file system. Safe for concurrent use.
type ResultCache struct {
	Dir string

	mu       sync.Mutex
	mem      map[string]*list.Element // of memEntry
	lru      list.List                // front = most recently used
	memBytes int
}

// NewResultCache opens (creating if needed) a cache rooted at dir.
func NewResultCache(dir string) (*ResultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: cache: %w", err)
	}
	return &ResultCache{Dir: dir}, nil
}

func (c *ResultCache) path(key string) string {
	return filepath.Join(c.Dir, "point-"+key+".json")
}

// memGet returns the memory tier's bytes for key and marks them used.
func (c *ResultCache) memGet(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(memEntry).raw, true
}

// memPut makes raw the memory tier's entry for key, evicting from the cold
// end until the tier fits its bound. An entry larger than the whole tier is
// not admitted: it would evict everything and then itself.
func (c *ResultCache) memPut(key string, raw json.RawMessage) {
	if len(raw) > memTierBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mem == nil {
		c.mem = make(map[string]*list.Element)
	}
	if el, ok := c.mem[key]; ok { // replaced: out with the old bytes first
		c.memBytes -= len(c.lru.Remove(el).(memEntry).raw)
	}
	c.mem[key] = c.lru.PushFront(memEntry{key: key, raw: raw})
	c.memBytes += len(raw)
	for c.memBytes > memTierBytes {
		cold := c.lru.Remove(c.lru.Back()).(memEntry)
		delete(c.mem, cold.key)
		c.memBytes -= len(cold.raw)
	}
}

// LookupKey returns the stored canonical Result bytes under key — derived by
// CacheKey, or by SweepRequest.Keys for a whole submission — without
// decoding them, or ok=false on any miss: no entry, the empty key (which
// Keys gives an uncacheable spec), or a disk entry that fails validation
// (stale version or registry, another key's header, a torn or malformed
// body — left on disk, simply unused, until the re-run's Put overwrites it).
// The returned slice is shared with the memory tier and every other caller:
// read it, never write it.
func (c *ResultCache) LookupKey(key string) (json.RawMessage, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	if raw, ok := c.memGet(key); ok {
		return raw, true
	}
	raw, ok := c.load(key)
	if ok {
		c.memPut(key, raw)
	}
	return raw, ok
}

// load reads key's disk entry and validates it. Hits are served as bytes,
// never decoded, so this is the one place an entry is checked, once per
// entry per process: the header must name this version, registry and key;
// the body must be exactly one newline-terminated line holding one JSON
// object that decodes as a Result, with nothing before, between or after.
func (c *ResultCache) load(key string) (json.RawMessage, bool) {
	if c.Dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	header, body, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return nil, false
	}
	var hdr cacheHeader
	if json.Unmarshal(header, &hdr) != nil ||
		hdr.Version != CheckpointVersion || hdr.Registry != core.RegistryVersion() || hdr.Key != key {
		return nil, false
	}
	body, terminated := bytes.CutSuffix(body, []byte{'\n'})
	if !terminated || len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' ||
		bytes.IndexByte(body, '\n') >= 0 || json.Unmarshal(body, new(Result)) != nil {
		return nil, false
	}
	return json.RawMessage(body), true
}

// Get is LookupKey under spec's CacheKey plus a decode: the stored canonical
// bytes and the Restored Result they encode. An uncacheable spec misses.
func (c *ResultCache) Get(spec HybridSpec) (raw json.RawMessage, res *Result, ok bool) {
	key, _ := CacheKey(spec)
	raw, ok = c.LookupKey(key)
	if !ok {
		return nil, nil, false
	}
	if res, err := restore(raw); err == nil {
		return raw, res, true
	}
	return nil, nil, false
}

// restore decodes a stored point's canonical bytes as a Restored Result.
func restore(raw json.RawMessage) (*Result, error) {
	res := &Result{Restored: true}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("exp: cache: %w", err)
	}
	return res, nil
}

// Put stores raw — the canonical json.Marshal bytes of spec's Result — under
// the spec's key. Uncacheable specs are a silent no-op (the caller already
// ran the point; there is nothing to salvage by failing it). The write is
// temp-file + fsync + rename, so readers only ever see whole entries; the
// memory tier takes raw only once the rename has succeeded, so it never
// holds bytes the disk tier refused and a restart can never know less than
// a running process served. A memory-only cache (Dir == "") has no disk tier
// to disagree with and takes raw at once. The cache keeps raw: do not modify
// it after.
func (c *ResultCache) Put(spec HybridSpec, raw json.RawMessage) error {
	if c == nil {
		return nil
	}
	key, _ := CacheKey(spec)
	return c.putKey(key, raw)
}

// putKey is Put under a key already derived; the empty key, an uncacheable
// spec's, stores nothing.
func (c *ResultCache) putKey(key string, raw json.RawMessage) error {
	if c == nil || key == "" {
		return nil
	}
	if c.Dir == "" {
		c.memPut(key, raw)
		return nil
	}
	hdr, err := json.Marshal(cacheHeader{Version: CheckpointVersion, Registry: core.RegistryVersion(), Key: key})
	if err != nil {
		return fmt.Errorf("exp: cache: %w", err)
	}
	f, err := os.CreateTemp(c.Dir, ".point-*.tmp")
	if err != nil {
		return fmt.Errorf("exp: cache: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("exp: cache: %w", err)
	}
	for _, chunk := range [][]byte{hdr, {'\n'}, raw, {'\n'}} {
		if _, err := f.Write(chunk); err != nil {
			return cleanup(err)
		}
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("exp: cache: %w", err)
	}
	c.memPut(key, raw)
	return nil
}

// Point is the one way a point is computed next to a store. key is spec's
// CacheKey, derived once by the caller (SweepRequest.Keys derives a whole
// submission's); the empty key marks a spec the store cannot hold
// (PolicyFactory, Hooks, armed recorder), which simply runs, as every spec
// does on a nil cache. On a hit Point returns the stored canonical bytes and
// a nil Result: nothing is decoded. On a miss it calls run and returns the
// fresh Result with its canonical bytes, stored before they are handed back
// by whichever goroutine ran the point — so a point is durable the moment it
// finishes, whatever its neighbours are still doing, and a failed store
// fails the point.
func (c *ResultCache) Point(ctx context.Context, key string, spec HybridSpec,
	run func(context.Context, HybridSpec) (*Result, error)) (json.RawMessage, *Result, error) {
	if raw, ok := c.LookupKey(key); ok {
		return raw, nil, nil
	}
	res, err := run(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: cache: spec %q: %w", spec.Name, err)
	}
	if err := c.putKey(key, raw); err != nil {
		return nil, nil, err
	}
	return raw, res, nil
}

// GetOrRun is Point over RunHybridCtx, decoding a hit: the stored Result is
// Restored and otherwise, by determinism, indistinguishable from a
// recomputed one.
func (c *ResultCache) GetOrRun(ctx context.Context, spec HybridSpec) (*Result, error) {
	var key string
	if c != nil {
		key, _ = CacheKey(spec)
	}
	raw, res, err := c.Point(ctx, key, spec, RunHybridCtx)
	if err != nil || res != nil {
		return res, err
	}
	return restore(raw)
}

// Len counts the entries on disk (test and status reporting).
func (c *ResultCache) Len() (int, error) {
	if c == nil {
		return 0, nil
	}
	entries, err := os.ReadDir(c.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "point-") && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
