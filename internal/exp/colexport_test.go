package exp

import (
	"bytes"
	"math"
	"testing"

	"l2bm/internal/colfmt"
	"l2bm/internal/sim"
	"l2bm/internal/trace"
)

// colSpecs are traced tiny-scale stand-ins for the Fig. 3 (motivation mix),
// Fig. 7 (load sweep point) and Fig. 8 (incast) scenarios the acceptance
// bar names.
func colSpecs() []HybridSpec {
	tr := &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 16}
	return []HybridSpec{
		{Name: "fig3-style", Policy: "DT", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4, InterRackOnly: true, Trace: tr},
		{Name: "fig7-style", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.6, Trace: tr},
		{Name: "fig8-style", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.2, TCPLoad: 0.2,
			Incast: &IncastSpec{Fanout: 3, RequestBytes: 100_000, QueryRate: 2000}, Trace: tr},
	}
}

func colInts(t *testing.T, r *colfmt.ChannelReader, name string) []int64 {
	t.Helper()
	v, err := r.Ints(name)
	if err != nil {
		t.Fatalf("Ints(%s): %v", name, err)
	}
	return v
}

func colStrs(t *testing.T, r *colfmt.ChannelReader, name string) []string {
	t.Helper()
	v, err := r.Strs(name)
	if err != nil {
		t.Fatalf("Strs(%s): %v", name, err)
	}
	return v
}

func colFloats(t *testing.T, r *colfmt.ChannelReader, name string) []float64 {
	t.Helper()
	v, err := r.Floats(name)
	if err != nil {
		t.Fatalf("Floats(%s): %v", name, err)
	}
	return v
}

// TestWriteColRoundTrip: the columnar export of a traced run decodes back
// to exactly the recorder's channels and the result's metrics series —
// value-for-value, including float bits — and the file is smaller than the
// CSV export of the same run.
func TestWriteColRoundTrip(t *testing.T) {
	var totalEvents int
	defer func() {
		if !t.Failed() && totalEvents == 0 {
			t.Error("no spec recorded packet events; the events round trip is vacuous")
		}
	}()
	for _, spec := range colSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunHybrid(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteCol(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := colfmt.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			occ := res.Trace.OccSamples()
			rd := dec.Channel(trace.ColOccupancy)
			if rd == nil || rd.Rows() != len(occ) {
				t.Fatalf("occupancy channel missing or wrong rows")
			}
			if len(occ) == 0 {
				t.Fatal("run recorded no occupancy samples; round trip is vacuous")
			}
			ats, sws := colInts(t, rd, "at_ps"), colStrs(t, rd, "switch")
			resid, shared := colInts(t, rd, "resident"), colInts(t, rd, "shared_used")
			for i, s := range occ {
				if ats[i] != int64(s.At) || sws[i] != s.Switch ||
					resid[i] != s.Resident || shared[i] != s.SharedUsed {
					t.Fatalf("occupancy row %d mismatch", i)
				}
			}

			pfc := res.Trace.PFCEvents()
			rd = dec.Channel(trace.ColPFC)
			if rd.Rows() != len(pfc) {
				t.Fatalf("pfc rows %d, want %d", rd.Rows(), len(pfc))
			}
			ats, kinds := colInts(t, rd, "at_ps"), colStrs(t, rd, "kind")
			ports, prios := colInts(t, rd, "port"), colInts(t, rd, "prio")
			for i, e := range pfc {
				if ats[i] != int64(e.At) || kinds[i] != e.Kind.String() ||
					ports[i] != int64(e.Port) || prios[i] != int64(e.Prio) {
					t.Fatalf("pfc row %d mismatch", i)
				}
			}

			pauses := res.Trace.PauseIntervals(res.EndTime)
			rd = dec.Channel(trace.ColPauses)
			if rd.Rows() != len(pauses) {
				t.Fatalf("pauses rows %d, want %d", rd.Rows(), len(pauses))
			}
			froms, tos := colInts(t, rd, "from_ps"), colInts(t, rd, "to_ps")
			views := colStrs(t, rd, "view")
			opens, err := rd.Uints("open")
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pauses {
				wantView := "mmu"
				if p.Kind == trace.PortPaused {
					wantView = "tx"
				}
				var wantOpen uint64
				if p.Open {
					wantOpen = 1
				}
				if froms[i] != int64(p.From) || tos[i] != int64(p.To) ||
					views[i] != wantView || opens[i] != wantOpen {
					t.Fatalf("pause row %d mismatch", i)
				}
			}

			weights := res.Trace.WeightSamples()
			rd = dec.Channel(trace.ColWeights)
			if rd.Rows() != len(weights) {
				t.Fatalf("weights rows %d, want %d", rd.Rows(), len(weights))
			}
			ws := colFloats(t, rd, "weight")
			ths := colInts(t, rd, "threshold")
			for i, s := range weights {
				if math.Float64bits(ws[i]) != math.Float64bits(s.Weight) || ths[i] != s.Threshold {
					t.Fatalf("weights row %d mismatch", i)
				}
			}

			events := res.Trace.PacketEvents()
			rd = dec.Channel(trace.ColEvents)
			if rd.Rows() != len(events) {
				t.Fatalf("events rows %d, want %d", rd.Rows(), len(events))
			}
			totalEvents += len(events)
			ats, sizes := colInts(t, rd, "at_ps"), colInts(t, rd, "size")
			kinds, classes := colStrs(t, rd, "kind"), colStrs(t, rd, "class")
			for i, e := range events {
				if ats[i] != int64(e.At) || sizes[i] != int64(e.Size) ||
					kinds[i] != e.Kind.String() || classes[i] != e.Class.String() {
					t.Fatalf("events row %d mismatch", i)
				}
			}

			rd = dec.Channel(ColTorOccupancy)
			var wantTor int
			for _, samples := range res.TorOccupancy {
				wantTor += len(samples)
			}
			if rd.Rows() != wantTor {
				t.Fatalf("tor occupancy rows %d, want %d", rd.Rows(), wantTor)
			}
			tors, err := rd.Uints("tor")
			if err != nil {
				t.Fatal(err)
			}
			ats, vals := colInts(t, rd, "at_ps"), colInts(t, rd, "value")
			row := 0
			for tor, samples := range res.TorOccupancy {
				for _, s := range samples {
					if tors[row] != uint64(tor) || ats[row] != int64(s.At) || vals[row] != s.Value {
						t.Fatalf("tor occupancy row %d mismatch", row)
					}
					row++
				}
			}

			for name, want := range map[string][]float64{
				ColRDMASlowdowns:   res.RDMASlowdowns,
				ColTCPSlowdowns:    res.TCPSlowdowns,
				ColIncastSlowdowns: res.IncastSlowdowns,
			} {
				got := colFloats(t, dec.Channel(name), "slowdown")
				if len(got) != len(want) {
					t.Fatalf("%s rows %d, want %d", name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s[%d] mismatch", name, i)
					}
				}
			}
			delays := colInts(t, dec.Channel(ColQueryDelays), "delay_ps")
			if len(delays) != len(res.QueryDelays) {
				t.Fatalf("query delays rows %d, want %d", len(delays), len(res.QueryDelays))
			}
			for i, d := range res.QueryDelays {
				if delays[i] != int64(d) {
					t.Fatalf("query delay %d mismatch", i)
				}
			}

			// Equal results encode to identical bytes.
			var again bytes.Buffer
			if err := res.WriteCol(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Error("WriteCol is not deterministic")
			}
		})
	}
}

// TestWriteColUntraced: a run without a recorder still exports its metrics
// channels (the daemon serves /trace for untraced sweeps too).
func TestWriteColUntraced(t *testing.T) {
	res := &Result{Policy: "DT", TCPSlowdowns: []float64{1, 2.5}, QueryDelays: []sim.Duration{5}}
	var buf bytes.Buffer
	if err := res.WriteCol(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := colfmt.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Channel(trace.ColOccupancy) != nil {
		t.Error("untraced run emitted trace channels")
	}
	if got := colFloats(t, dec.Channel(ColTCPSlowdowns), "slowdown"); len(got) != 2 {
		t.Errorf("tcp slowdowns rows %d, want 2", len(got))
	}
}
