package exp

// Columnar result export: one colfmt file carrying the run's flight-recorder
// channels (when traced) plus the metrics series every run accumulates —
// per-ToR occupancy readings, per-class slowdown distributions and incast
// query delays. This is the artifact l2bmd serves per point and l2bmexp
// -trace writes per point, and the only encoding the recorder has;
// cmd/l2bmtrace prints any channel of it as CSV.

import (
	"io"

	"l2bm/internal/colfmt"
)

// Columnar channel names written by WriteCol beyond the trace/* channels
// (see trace.AppendCol for those).
const (
	ColTorOccupancy    = "metrics/tor_occupancy"
	ColRDMASlowdowns   = "metrics/rdma_slowdowns"
	ColTCPSlowdowns    = "metrics/tcp_slowdowns"
	ColIncastSlowdowns = "metrics/incast_slowdowns"
	ColQueryDelays     = "metrics/query_delays"
)

// WriteCol renders the run into one columnar file: every flight-recorder
// channel (when the run was traced; pause episodes closed at EndTime) and
// the metrics series. Equal results produce byte-identical files.
func (r *Result) WriteCol(w io.Writer) error {
	f := colfmt.NewFile()
	r.Trace.AppendCol(f, r.EndTime)

	var tors []uint64
	var ats, vals []int64
	for tor, samples := range r.TorOccupancy {
		for _, s := range samples {
			tors = append(tors, uint64(tor))
			ats = append(ats, int64(s.At))
			vals = append(vals, s.Value)
		}
	}
	f.Channel(ColTorOccupancy).Uint("tor", tors).Time("at_ps", ats).Int("value", vals)
	f.Channel(ColRDMASlowdowns).Float("slowdown", r.RDMASlowdowns)
	f.Channel(ColTCPSlowdowns).Float("slowdown", r.TCPSlowdowns)
	f.Channel(ColIncastSlowdowns).Float("slowdown", r.IncastSlowdowns)
	delays := make([]int64, len(r.QueryDelays))
	for i, d := range r.QueryDelays {
		delays[i] = int64(d)
	}
	f.Channel(ColQueryDelays).Int("delay_ps", delays)

	_, err := f.WriteTo(w)
	return err
}
