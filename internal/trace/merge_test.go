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
