package trace

import (
	"reflect"
	"testing"

	"l2bm/internal/sim"
)

// TestMergeCanonicalOrder: two recorders holding interleaved per-switch
// histories merge into one (time, switch)-ordered stream, regardless of
// which recorder held which switch.
func TestMergeCanonicalOrder(t *testing.T) {
	a := NewRecorder(16)
	b := NewRecorder(16)
	// Switch "agg0" lives on recorder a, "tor1" on b; their samples
	// interleave in time.
	a.RecordOcc(OccSample{At: 10, Switch: "agg0", Resident: 1})
	a.RecordOcc(OccSample{At: 30, Switch: "agg0", Resident: 3})
	b.RecordOcc(OccSample{At: 10, Switch: "tor1", Resident: 2})
	b.RecordOcc(OccSample{At: 20, Switch: "tor1", Resident: 4})
	a.RecordPFC(PFCEvent{At: 15, Switch: "agg0", Port: 1, Kind: PFCAssert})
	b.RecordPFC(PFCEvent{At: 15, Switch: "tor1", Port: 2, Kind: PFCAssert})

	ab := Merge(a, b)
	ba := Merge(b, a)

	wantOcc := []OccSample{
		{At: 10, Switch: "agg0", Resident: 1},
		{At: 10, Switch: "tor1", Resident: 2},
		{At: 20, Switch: "tor1", Resident: 4},
		{At: 30, Switch: "agg0", Resident: 3},
	}
	if got := ab.OccSamples(); !reflect.DeepEqual(got, wantOcc) {
		t.Errorf("Merge(a,b) occ = %v, want %v", got, wantOcc)
	}
	// Canonical: input order must not matter.
	if !reflect.DeepEqual(ab.OccSamples(), ba.OccSamples()) {
		t.Errorf("Merge is sensitive to input order: %v vs %v",
			ab.OccSamples(), ba.OccSamples())
	}
	if !reflect.DeepEqual(ab.PFCEvents(), ba.PFCEvents()) {
		t.Errorf("PFC merge is sensitive to input order")
	}
	if len(ab.PFCEvents()) != 2 || ab.PFCEvents()[0].Switch != "agg0" {
		t.Errorf("PFC tie at t=15 not broken by switch name: %v", ab.PFCEvents())
	}
}

// TestMergeNilAndEmpty: nil recorders are skipped and an all-empty merge
// yields a usable empty recorder.
func TestMergeNilAndEmpty(t *testing.T) {
	a := NewRecorder(4)
	a.RecordWeight(WeightSample{At: 5, Switch: "tor0", Weight: 1.5})
	out := Merge(nil, a, nil)
	if got := out.WeightSamples(); len(got) != 1 || got[0].Weight != 1.5 {
		t.Errorf("merge with nils lost data: %v", got)
	}
	empty := Merge(nil, NewRecorder(4))
	if empty == nil || len(empty.OccSamples()) != 0 {
		t.Errorf("empty merge should yield an empty recorder")
	}
}

// TestMergePreservesPerSwitchOrder: equal-time samples of the SAME switch
// from one input keep their recorded order (stable sort).
func TestMergePreservesPerSwitchOrder(t *testing.T) {
	a := NewRecorder(8)
	a.RecordPFC(PFCEvent{At: 7, Switch: "tor0", Port: 1, Kind: PFCAssert})
	a.RecordPFC(PFCEvent{At: 7, Switch: "tor0", Port: 1, Kind: PFCRelease})
	out := Merge(a)
	ev := out.PFCEvents()
	if len(ev) != 2 || ev[0].Kind != PFCAssert || ev[1].Kind != PFCRelease {
		t.Errorf("same-switch same-time order not preserved: %v", ev)
	}
}

// TestMergeCarriesEvictions: a merged recorder is sized to hold everything it
// was handed, so it evicts nothing itself — but what its inputs had already
// lost must still be reported, or a truncated recording reads as complete.
func TestMergeCarriesEvictions(t *testing.T) {
	a, b := NewRecorder(3), NewRecorder(3)
	for i := 0; i < 5; i++ { // 2 over the ring
		a.RecordOcc(OccSample{At: sim.Time(i), Switch: "tor0"})
	}
	for i := 0; i < 7; i++ { // 4 over
		b.RecordOcc(OccSample{At: sim.Time(i), Switch: "tor1"})
		b.RecordPacketEvent(PacketEvent{At: sim.Time(i), Switch: "tor1", Kind: ECNMark})
	}
	b.RecordPFC(PFCEvent{At: 1, Switch: "tor1", Kind: PFCAssert})

	st := Merge(a, nil, b).Stats()
	want := Stats{OccSamples: 6, OccEvicted: 6, PFCEvents: 1, PacketEvents: 3, PacketEvicted: 4}
	if st != want {
		t.Errorf("merged stats %+v, want %+v", st, want)
	}
	if st.Evicted() != 10 {
		t.Errorf("Evicted() = %d, want 10", st.Evicted())
	}
	if again := Merge(Merge(a, b)).Stats(); again != want {
		t.Errorf("re-merging lost the counts: %+v, want %+v", again, want)
	}
}

// TestAbsorbShiftsAndCarriesEvictions: re-basing a segment's recording keeps
// its rows in order at shifted instants, and rows the segment's own rings had
// dropped count as lost in the recorder that absorbed it.
func TestAbsorbShiftsAndCarriesEvictions(t *testing.T) {
	run, seg := NewRecorder(8), NewRecorder(2)
	run.RecordOcc(OccSample{At: 5, Switch: "tor0"})
	for i := 0; i < 5; i++ { // 3 over the segment's ring
		seg.RecordOcc(OccSample{At: sim.Time(i), Switch: "tor0", Resident: int64(i)})
	}
	seg.RecordPFC(PFCEvent{At: 1, Switch: "tor0", Kind: PFCAssert})
	run.Absorb(seg, 100)
	run.Absorb(nil, 100)

	want := []OccSample{{At: 5, Switch: "tor0"}, {At: 103, Switch: "tor0", Resident: 3}, {At: 104, Switch: "tor0", Resident: 4}}
	if got := run.OccSamples(); !reflect.DeepEqual(got, want) {
		t.Errorf("absorbed occupancy rows %v, want %v", got, want)
	}
	if ev := run.PFCEvents(); len(ev) != 1 || ev[0].At != 101 {
		t.Errorf("absorbed PFC rows %v, want one at 101", ev)
	}
	if st := run.Stats(); st.OccEvicted != 3 || st.Evicted() != 3 {
		t.Errorf("stats after absorbing %+v, want the segment's 3 lost occupancy rows", st)
	}
}

// fuzzSwitches name the fuzzed rows' switches so that index order and name
// order disagree, which makes the merge's switch tie-break do real work.
var fuzzSwitches = [4]string{"tor1", "agg0", "tor0", "core0"}

// recordFuzzRow records one row on channel ch, its payload drawn from v so
// that rows sharing a (time, switch) key stay distinguishable.
func recordFuzzRow(r *Recorder, ch int, at sim.Time, sw string, v byte) {
	switch ch {
	case 0:
		r.RecordOcc(OccSample{At: at, Switch: sw, Resident: int64(v)})
	case 1:
		r.RecordPFC(PFCEvent{At: at, Switch: sw, Port: int(v), Kind: PFCKind(v%5 + 1)})
	case 2:
		r.RecordWeight(WeightSample{At: at, Switch: sw, Weight: float64(v)})
	default:
		r.RecordPacketEvent(PacketEvent{At: at, Switch: sw, Size: int(v), Kind: ECNMark})
	}
}

// shiftRows returns rows with every timestamp moved by d.
func shiftRows[T row[T]](rows []T, d sim.Time) []T {
	for i := range rows {
		rows[i] = rows[i].shifted(d)
	}
	return rows
}

// FuzzTraceMerge decodes a byte string into a time-ordered row stream (two
// bytes a row: channel, switch, whether the clock advances, payload — so
// equal-time ties are frequent) and records it whole and, split by switch,
// across 1–4 recorders the way a sharded run would. Merging the parts must
// reproduce the whole's merge channel by channel with equal Stats, and a
// recorder that absorbed the whole at a shift must merge to the whole's merge
// with every row shifted.
func FuzzTraceMerge(f *testing.F) {
	f.Add(uint8(1), int32(0), []byte{0, 1, 4, 2, 8, 3, 12, 4})
	f.Add(uint8(2), int32(100), []byte{16, 9, 1, 7, 5, 7, 0x21, 3, 2, 2, 6, 1, 10, 0, 14, 5})
	f.Add(uint8(3), int32(-40), []byte{3, 1, 7, 2, 11, 3, 15, 4, 0x53, 5, 0, 6, 4, 6, 8, 6, 12, 6})
	f.Add(uint8(4), int32(7), []byte{0xf0, 1, 0xe5, 2, 0x1a, 3, 0x3f, 4, 9, 5, 13, 6, 1, 7, 2, 8})
	f.Fuzz(func(t *testing.T, k uint8, shift int32, in []byte) {
		parts := make([]*Recorder, 1+int(k)%4)
		for i := range parts {
			parts[i] = NewRecorder(len(in))
		}
		whole := NewRecorder(len(in))
		var at sim.Time
		for i := 0; i+1 < len(in); i += 2 {
			b := in[i]
			if b&16 != 0 {
				at += sim.Time(b>>5) + 1
			}
			sw := int(b>>2) & 3
			recordFuzzRow(whole, int(b&3), at, fuzzSwitches[sw], in[i+1])
			recordFuzzRow(parts[sw%len(parts)], int(b&3), at, fuzzSwitches[sw], in[i+1])
		}

		want := Merge(whole)
		got := Merge(parts...)
		if !reflect.DeepEqual(got.OccSamples(), want.OccSamples()) ||
			!reflect.DeepEqual(got.PFCEvents(), want.PFCEvents()) ||
			!reflect.DeepEqual(got.WeightSamples(), want.WeightSamples()) ||
			!reflect.DeepEqual(got.PacketEvents(), want.PacketEvents()) {
			t.Fatalf("merging %d parts differs from merging the whole", len(parts))
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("merged parts stats %+v, whole %+v", got.Stats(), want.Stats())
		}

		d := sim.Time(shift)
		seg := NewRecorder(len(in))
		seg.Absorb(whole, d)
		moved := Merge(seg)
		if !reflect.DeepEqual(moved.OccSamples(), shiftRows(want.OccSamples(), d)) ||
			!reflect.DeepEqual(moved.PFCEvents(), shiftRows(want.PFCEvents(), d)) ||
			!reflect.DeepEqual(moved.WeightSamples(), shiftRows(want.WeightSamples(), d)) ||
			!reflect.DeepEqual(moved.pkts.slice(), shiftRows(want.pkts.slice(), d)) {
			t.Fatalf("absorbing at shift %d then merging differs from the shifted merge", d)
		}
		if moved.Stats() != want.Stats() {
			t.Fatalf("absorbed stats %+v, whole %+v", moved.Stats(), want.Stats())
		}
	})
}
