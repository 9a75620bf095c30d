package exp

// Flight-recorder wiring: arming a run's trace.Recorder and exporting it as
// one columnar file per point with a deterministic name, so the
// occupancy/pause/threshold timelines behind Figs. 7(c), 7(d), 8 and 10(c)
// drop out of any figure runner (cmd/l2bmtrace prints a channel as CSV).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"l2bm/internal/sim"
)

// TraceSpec arms the flight recorder for a run.
type TraceSpec struct {
	// SampleEvery is the occupancy / L2BM-weight sampling period. Zero
	// falls back to the run's occupancy sampling period (default 100 µs).
	SampleEvery sim.Duration
	// Capacity is the per-channel ring capacity (0 = trace.DefaultCapacity)
	// of each shard's recorder. Size it to hold the run: rings that overflow
	// keep their newest rows shard by shard (Result.Trace.Stats().Evicted()
	// says how many were lost), which is the one way an exported trace can
	// depend on the shard count.
	Capacity int
}

// TraceFileStem returns the deterministic file-name stem for this run's
// trace artifacts: "<name>-<policy>[-r<rdma>][-t<tcp>]", lowercased with
// loads rendered as percentages (fig7-l2bm-r40-t80).
func (r *Result) TraceFileStem() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s-%s", r.Spec.Name, r.Policy)
	if r.Spec.RDMALoad > 0 {
		fmt.Fprintf(&b, "-r%02.0f", r.Spec.RDMALoad*100)
	}
	if r.Spec.TCPLoad > 0 {
		fmt.Fprintf(&b, "-t%02.0f", r.Spec.TCPLoad*100)
	}
	if r.Spec.Incast != nil {
		fmt.Fprintf(&b, "-n%d", r.Spec.Incast.Fanout)
	}
	stem := strings.ToLower(b.String())
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '.':
			return c
		default:
			return '_'
		}
	}, stem)
}

// writeColFile writes res's columnar artifact (WriteCol) to path, creating
// the directory if needed.
func writeColFile(path string, res *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteCol(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
