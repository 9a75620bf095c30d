package trace

// Columnar export — the recorder's one encoding: its channels rendered into
// a colfmt.File, one column per field plus the derived pause-interval view.
// Timestamps are integer picoseconds (`*_ps`) so files from two runs diff
// cleanly — no float formatting ambiguity. Strings (switch names, event
// kinds, classes) are dictionary-encoded and timestamps delta-encoded, which
// is where the columnar file wins its size advantage over row-wise text.

import (
	"l2bm/internal/colfmt"
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
func (r *Recorder) AppendCol(f *colfmt.File, horizon sim.Time) {
	if r == nil {
		return
	}
	occ := r.OccSamples()
	ats := make([]int64, len(occ))
	sws := make([]string, len(occ))
	res := make([]int64, len(occ))
	shared := make([]int64, len(occ))
	for i, s := range occ {
		ats[i], sws[i], res[i], shared[i] = int64(s.At), s.Switch, s.Resident, s.SharedUsed
	}
	f.Channel(ColOccupancy).
		Time("at_ps", ats).Str("switch", sws).Int("resident", res).Int("shared_used", shared)

	pfc := r.PFCEvents()
	ats = make([]int64, len(pfc))
	sws = make([]string, len(pfc))
	ports := make([]int64, len(pfc))
	prios := make([]int64, len(pfc))
	kinds := make([]string, len(pfc))
	for i, e := range pfc {
		ats[i], sws[i], ports[i], prios[i], kinds[i] =
			int64(e.At), e.Switch, int64(e.Port), int64(e.Prio), e.Kind.String()
	}
	f.Channel(ColPFC).
		Time("at_ps", ats).Str("switch", sws).Int("port", ports).Int("prio", prios).Str("kind", kinds)

	pauses := r.PauseIntervals(horizon)
	sws = make([]string, len(pauses))
	ports = make([]int64, len(pauses))
	prios = make([]int64, len(pauses))
	views := make([]string, len(pauses))
	froms := make([]int64, len(pauses))
	tos := make([]int64, len(pauses))
	opens := make([]uint64, len(pauses))
	for i, p := range pauses {
		view := "mmu"
		if p.Kind == PortPaused {
			view = "tx"
		}
		var open uint64
		if p.Open {
			open = 1
		}
		sws[i], ports[i], prios[i], views[i] = p.Switch, int64(p.Port), int64(p.Prio), view
		froms[i], tos[i], opens[i] = int64(p.From), int64(p.To), open
	}
	f.Channel(ColPauses).
		Str("switch", sws).Int("port", ports).Int("prio", prios).Str("view", views).
		Time("from_ps", froms).Time("to_ps", tos).Uint("open", opens)

	weights := r.WeightSamples()
	ats = make([]int64, len(weights))
	sws = make([]string, len(weights))
	ports = make([]int64, len(weights))
	prios = make([]int64, len(weights))
	taus := make([]int64, len(weights))
	ws := make([]float64, len(weights))
	ths := make([]int64, len(weights))
	for i, s := range weights {
		ats[i], sws[i], ports[i], prios[i] = int64(s.At), s.Switch, int64(s.Port), int64(s.Prio)
		taus[i], ws[i], ths[i] = int64(s.Tau), s.Weight, s.Threshold
	}
	f.Channel(ColWeights).
		Time("at_ps", ats).Str("switch", sws).Int("port", ports).Int("prio", prios).
		Int("tau_ps", taus).Float("weight", ws).Int("threshold", ths)

	pkts := r.PacketEvents()
	ats = make([]int64, len(pkts))
	sws = make([]string, len(pkts))
	ports = make([]int64, len(pkts))
	prios = make([]int64, len(pkts))
	kinds = make([]string, len(pkts))
	sizes := make([]int64, len(pkts))
	classes := make([]string, len(pkts))
	for i, e := range pkts {
		ats[i], sws[i], ports[i], prios[i] = int64(e.At), e.Switch, int64(e.Port), int64(e.Prio)
		kinds[i], sizes[i], classes[i] = e.Kind.String(), int64(e.Size), e.Class.String()
	}
	f.Channel(ColEvents).
		Time("at_ps", ats).Str("switch", sws).Int("port", ports).Int("prio", prios).
		Str("kind", kinds).Int("size", sizes).Str("class", classes)
}
