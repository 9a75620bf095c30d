// Sweep-level checkpoint/resume: long grids append each completed point to
// a JSONL file keyed by a content hash of the sweep's specs, so a killed
// run resumes exactly where it stopped and re-renders byte-identical
// output. Restored points bypass simulation entirely — determinism makes a
// stored Result indistinguishable from a recomputed one.
//
// Crash safety is append-only: the header and every point line are written
// (and fsynced) as single whole-line appends, and the loader stops at the
// first malformed line, so a crash mid-append costs at most the point being
// written, never the file.
//
// Eligibility: only sweeps whose every spec is plain data. Specs carrying
// funcs — PolicyFactory, TopoOverride, Hooks, a fault LinkFilter, or an
// armed flight recorder — cannot be hashed or restored and refuse to
// checkpoint loudly rather than resume wrongly.
package exp

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// CheckpointVersion is baked into the sweep hash and the result-cache key:
// bump it whenever the Result schema or spec canonicalization changes
// incompatibly, so stale checkpoint files are refused (and cache entries
// miss) instead of being misread. Version 2 added Fidelity to specKey —
// under version 1 a hybrid-fidelity sweep hashed identically to the packet
// sweep of the same grid and could cross-restore.
const CheckpointVersion = 2

// checkpointIneligible names the first non-serializable field set on the
// spec, or "" when the spec is plain data and may be checkpointed.
func checkpointIneligible(spec HybridSpec) string {
	switch {
	case spec.PolicyFactory != nil:
		return "PolicyFactory"
	case spec.TopoOverride != nil:
		return "TopoOverride"
	case spec.Hooks != nil:
		return "Hooks"
	case spec.Trace != nil:
		return "Trace"
	case spec.Faults != nil && spec.Faults.Plan.LinkFilter != nil:
		return "Faults.Plan.LinkFilter"
	}
	return ""
}

// specKey canonicalizes every field that shapes a point's result. Two specs
// with equal keys produce byte-identical Results (determinism contract), so
// the key — not the grid's source code — decides what a checkpoint matches.
func specKey(spec HybridSpec) string {
	// Fidelity is present: hybrid fast-forward changes numbers within the
	// §14 bound.
	s := fmt.Sprintf("name=%s policy=%s scale=%d rdma=%v tcp=%v inter=%v occ=%d win=%d drain=%d salt=%q shards=%d fidelity=%q",
		spec.Name, spec.Policy, spec.Scale, spec.RDMALoad, spec.TCPLoad,
		spec.InterRackOnly, spec.OccupancySampleEvery, spec.WindowOverride,
		spec.DrainOverride, spec.SeedSalt, spec.Shards, spec.Fidelity)
	if in := spec.Incast; in != nil {
		s += fmt.Sprintf(" incast={%d %d %v}", in.Fanout, in.RequestBytes, in.QueryRate)
	}
	if f := spec.Faults; f != nil {
		p := f.Plan
		s += fmt.Sprintf(" faults={stream=%q flap=%v/%d/%v/%d sched=%v ber=%v pfcloss=%v blackouts=%v det=%d break=%v wd=%d}",
			p.Stream, p.FlapRate, p.FlapDowntime, p.FlapFixed, p.FlapWindow,
			p.Scheduled, p.BER, p.PFCLossRate, p.Blackouts,
			f.DetectorPeriod, f.BreakDeadlocks, f.WatchdogWindow)
	}
	if a := spec.Audit; a != nil {
		s += fmt.Sprintf(" audit={%d %d %d}", a.Every, a.MaxPauseAge, a.Limit)
	}
	return s
}

// sweepHash content-hashes a sweep: version, grid size, and every spec's
// canonical key in index order. An error means some spec is ineligible.
func sweepHash(specs []HybridSpec) (uint64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d n=%d\n", CheckpointVersion, len(specs))
	for i, sp := range specs {
		if why := checkpointIneligible(sp); why != "" {
			return 0, fmt.Errorf("exp: checkpoint: point %d carries %s, which does not serialize — run without -resume or drop the field", i, why)
		}
		fmt.Fprintf(h, "%d %s\n", i, specKey(sp))
	}
	return h.Sum64(), nil
}

type checkpointHeader struct {
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	Points  int    `json:"points"`
}

type checkpointLine struct {
	Index  int     `json:"index"`
	Result *Result `json:"result"`
}

// checkpointWriter appends completed points to one sweep's file.
type checkpointWriter struct {
	f    *os.File
	path string
}

// openCheckpoint prepares the checkpoint for a sweep of n specs hashing to
// hash: it loads any previously completed points from dir (tolerating a
// torn tail from a crash) and opens the file for appending, writing the
// header if the file is new. The restored slice is nil or length n, sparse.
func openCheckpoint(dir string, hash uint64, n int) ([]*Result, *checkpointWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("exp: checkpoint: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("sweep-%016x.jsonl", hash))
	restored, err := loadCheckpoint(path, hash, n)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("exp: checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f, path: path}
	if st.Size() == 0 {
		hdr, _ := json.Marshal(checkpointHeader{
			Version: CheckpointVersion, Hash: fmt.Sprintf("%016x", hash), Points: n,
		})
		if err := w.appendLine(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return restored, w, nil
}

// loadCheckpoint reads previously completed points. A missing file is an
// empty resume; a file written by a different sweep (hash, version or grid
// size mismatch) is refused; a malformed tail line — the torn write of the
// crash that ended the previous run — truncates the restore there.
func loadCheckpoint(path string, hash uint64, n int) ([]*Result, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("exp: checkpoint: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<20)
	first, err := readLine(r)
	if err != nil || len(first) == 0 {
		return nil, nil // empty or headerless file: nothing to restore
	}
	var hdr checkpointHeader
	if json.Unmarshal(first, &hdr) != nil {
		return nil, nil
	}
	if hdr.Version != CheckpointVersion || hdr.Hash != fmt.Sprintf("%016x", hash) || hdr.Points != n {
		return nil, fmt.Errorf("exp: checkpoint %s was written by a different sweep (version %d hash %s points %d; want %d/%016x/%d) — delete it or point -resume elsewhere",
			path, hdr.Version, hdr.Hash, hdr.Points, CheckpointVersion, hash, n)
	}

	restored := make([]*Result, n)
	for {
		line, err := readLine(r)
		if len(line) > 0 {
			var cl checkpointLine
			if json.Unmarshal(line, &cl) != nil || cl.Index < 0 || cl.Index >= n || cl.Result == nil {
				return restored, nil // torn tail: keep everything before it
			}
			restored[cl.Index] = cl.Result
		}
		if err != nil {
			return restored, nil
		}
	}
}

// readLine reads one newline-terminated line without a length cap (point
// results with occupancy traces exceed bufio.Scanner's default limit).
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err == io.EOF && len(line) > 0 {
		// No trailing newline: a torn final write. Hand it up; the JSON
		// parse will reject it and truncate the restore there.
		return line, err
	}
	return line, err
}

// append persists one completed point: a single whole-line write followed
// by fsync, so a crash never leaves more than one torn line.
func (w *checkpointWriter) append(i int, res *Result) error {
	buf, err := json.Marshal(checkpointLine{Index: i, Result: res})
	if err != nil {
		return fmt.Errorf("exp: checkpoint: point %d: %w", i, err)
	}
	return w.appendLine(buf)
}

func (w *checkpointWriter) appendLine(buf []byte) error {
	if _, err := w.f.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("exp: checkpoint: %w", err)
	}
	return nil
}

func (w *checkpointWriter) Close() error { return w.f.Close() }

// CheckpointProbe reports how many of the sweep's points a resume would
// restore, without running anything (used for progress reporting).
func CheckpointProbe(dir string, specs []HybridSpec) (restored, total int, err error) {
	hash, err := sweepHash(specs)
	if err != nil {
		return 0, len(specs), err
	}
	results, err := loadCheckpoint(
		filepath.Join(dir, fmt.Sprintf("sweep-%016x.jsonl", hash)), hash, len(specs))
	if err != nil {
		return 0, len(specs), err
	}
	for _, r := range results {
		if r != nil {
			restored++
		}
	}
	return restored, len(specs), nil
}
