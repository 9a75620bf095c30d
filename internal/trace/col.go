package trace

// Columnar export — the recorder's one encoding: its channels rendered into
// a colfmt.File, one column per field plus the derived pause-interval view.
// Timestamps are integer picoseconds (`*_ps`) so files from two runs diff
// cleanly — no float formatting ambiguity. Strings (switch names, event
// kinds, classes) are dictionary-encoded and timestamps delta-encoded, which
// is where the columnar file wins its size advantage over row-wise text.

import (
	"l2bm/internal/colfmt"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// Columnar channel names written by AppendCol.
const (
	ColOccupancy = "trace/occupancy"
	ColPFC       = "trace/pfc"
	ColPauses    = "trace/pauses"
	ColWeights   = "trace/weights"
	ColEvents    = "trace/events"
)

// AppendCol renders every retained channel into f. Pause episodes are
// reconstructed up to horizon (an episode still open there is closed at it
// and flagged open). A nil recorder appends nothing.
//
// Columns are filled straight from the rings through one scratch slice per
// value kind, reused column after column: the encoders copy what they are
// handed, so export holds one column of values at a time, never a copy of a
// channel.
func (r *Recorder) AppendCol(f *colfmt.File, horizon sim.Time) {
	if r == nil {
		return
	}
	pauses := r.PauseIntervals(horizon)
	rows := max(r.occ.len(), r.pfc.len(), r.weights.len(), r.pkts.len(), len(pauses))
	sc := &scratch{ints: make([]int64, 0, rows), strs: make([]string, 0, rows)}

	occ := &r.occ
	f.Channel(ColOccupancy).
		Time("at_ps", ints(sc, occ, func(s *OccSample) int64 { return int64(s.At) })).
		Str("switch", strs(sc, occ, func(s *OccSample) string { return s.Switch })).
		Int("resident", ints(sc, occ, func(s *OccSample) int64 { return s.Resident })).
		Int("shared_used", ints(sc, occ, func(s *OccSample) int64 { return s.SharedUsed }))

	pfc := &r.pfc
	f.Channel(ColPFC).
		Time("at_ps", ints(sc, pfc, func(e *PFCEvent) int64 { return int64(e.At) })).
		Str("switch", strs(sc, pfc, func(e *PFCEvent) string { return e.Switch })).
		Int("port", ints(sc, pfc, func(e *PFCEvent) int64 { return int64(e.Port) })).
		Int("prio", ints(sc, pfc, func(e *PFCEvent) int64 { return int64(e.Prio) })).
		Str("kind", strs(sc, pfc, func(e *PFCEvent) string { return e.Kind.String() }))

	ps := adoptRing(pauses)
	opens := make([]uint64, len(pauses))
	for i, p := range pauses {
		if p.Open {
			opens[i] = 1
		}
	}
	f.Channel(ColPauses).
		Str("switch", strs(sc, &ps, func(p *PauseInterval) string { return p.Switch })).
		Int("port", ints(sc, &ps, func(p *PauseInterval) int64 { return int64(p.Port) })).
		Int("prio", ints(sc, &ps, func(p *PauseInterval) int64 { return int64(p.Prio) })).
		Str("view", strs(sc, &ps, func(p *PauseInterval) string {
			if p.Kind == PortPaused {
				return "tx"
			}
			return "mmu"
		})).
		Time("from_ps", ints(sc, &ps, func(p *PauseInterval) int64 { return int64(p.From) })).
		Time("to_ps", ints(sc, &ps, func(p *PauseInterval) int64 { return int64(p.To) })).
		Uint("open", opens)

	w := &r.weights
	ws := make([]float64, 0, w.len())
	w.walk(func(rows []WeightSample) {
		for i := range rows {
			ws = append(ws, rows[i].Weight)
		}
	})
	f.Channel(ColWeights).
		Time("at_ps", ints(sc, w, func(s *WeightSample) int64 { return int64(s.At) })).
		Str("switch", strs(sc, w, func(s *WeightSample) string { return s.Switch })).
		Int("port", ints(sc, w, func(s *WeightSample) int64 { return int64(s.Port) })).
		Int("prio", ints(sc, w, func(s *WeightSample) int64 { return int64(s.Prio) })).
		Int("tau_ps", ints(sc, w, func(s *WeightSample) int64 { return int64(s.Tau) })).
		Float("weight", ws).
		Int("threshold", ints(sc, w, func(s *WeightSample) int64 { return s.Threshold }))

	pk := &r.pkts
	f.Channel(ColEvents).
		Time("at_ps", ints(sc, pk, func(e *pktRow) int64 { return int64(e.At) })).
		Str("switch", strs(sc, pk, func(e *pktRow) string { return e.Switch })).
		Int("port", ints(sc, pk, func(e *pktRow) int64 { return int64(e.Port) })).
		Int("prio", ints(sc, pk, func(e *pktRow) int64 { return int64(e.Prio) })).
		Str("kind", strs(sc, pk, func(e *pktRow) string { return PacketEventKind(e.Kind).String() })).
		Int("size", ints(sc, pk, func(e *pktRow) int64 { return int64(e.Size) })).
		Str("class", strs(sc, pk, func(e *pktRow) string { return pkt.Class(e.Class).String() }))
}

// scratch is AppendCol's reusable column buffers, one per value kind.
type scratch struct {
	ints []int64
	strs []string
}

// ints fills sc's int scratch with get of every retained row of rg,
// oldest-first, and returns it; valid until the next ints call.
func ints[T any](sc *scratch, rg *ring[T], get func(*T) int64) []int64 {
	sc.ints = sc.ints[:0]
	rg.walk(func(rows []T) {
		for i := range rows {
			sc.ints = append(sc.ints, get(&rows[i]))
		}
	})
	return sc.ints
}

// strs is ints for string columns.
func strs[T any](sc *scratch, rg *ring[T], get func(*T) string) []string {
	sc.strs = sc.strs[:0]
	rg.walk(func(rows []T) {
		for i := range rows {
			sc.strs = append(sc.strs, get(&rows[i]))
		}
	})
	return sc.strs
}
