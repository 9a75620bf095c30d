package trace

import (
	"bytes"
	"testing"

	"l2bm/internal/colfmt"
	"l2bm/internal/sim"
)

func TestRingBelowCapacity(t *testing.T) {
	r := newRing[int](8)
	for i := 0; i < 5; i++ {
		r.push(i)
	}
	got := r.slice()
	if len(got) != 5 || r.evicted != 0 {
		t.Fatalf("len=%d evicted=%d, want 5/0", len(got), r.evicted)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("slice[%d]=%d, want %d", i, v, i)
		}
	}
}

func TestRingWrapKeepsNewestWindow(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 11; i++ {
		r.push(i)
	}
	got := r.slice()
	want := []int{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("len=%d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice=%v, want %v", got, want)
		}
	}
	if r.evicted != 7 {
		t.Fatalf("evicted=%d, want 7", r.evicted)
	}
	// The returned slice is a copy.
	got[0] = -1
	if r.slice()[0] != 7 {
		t.Fatal("slice() aliases the ring buffer")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordOcc(OccSample{})
	r.RecordPFC(PFCEvent{})
	r.RecordWeight(WeightSample{})
	r.RecordPacketEvent(PacketEvent{})
	if r.OccSamples() != nil || r.PFCEvents() != nil || r.WeightSamples() != nil || r.PacketEvents() != nil {
		t.Fatal("nil recorder returned non-nil channel")
	}
	if r.Stats() != (Stats{}) {
		t.Fatal("nil recorder returned non-zero stats")
	}
	if r.PauseIntervals(0) != nil {
		t.Fatal("nil recorder returned pause intervals")
	}
	f := colfmt.NewFile()
	r.AppendCol(f, 0)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if d, err := colfmt.Decode(buf.Bytes()); err != nil || len(d.Channels()) != 0 {
		t.Fatalf("nil AppendCol: err=%v channels=%v", err, d.Channels())
	}
}

func TestPauseIntervalReconstruction(t *testing.T) {
	r := NewRecorder(0)
	// MMU view on (s0, port 1, prio 3): assert@10, reissue@20, release@30.
	r.RecordPFC(PFCEvent{At: 10, Switch: "s0", Port: 1, Prio: 3, Kind: PFCAssert})
	r.RecordPFC(PFCEvent{At: 20, Switch: "s0", Port: 1, Prio: 3, Kind: PFCReissue})
	r.RecordPFC(PFCEvent{At: 30, Switch: "s0", Port: 1, Prio: 3, Kind: PFCRelease})
	// TX view on the same tuple, independent episode left open.
	r.RecordPFC(PFCEvent{At: 15, Switch: "s0", Port: 1, Prio: 3, Kind: PortPaused})
	// Second MMU episode still open at horizon.
	r.RecordPFC(PFCEvent{At: 40, Switch: "s0", Port: 1, Prio: 3, Kind: PFCAssert})

	ivals := r.PauseIntervals(100)
	if len(ivals) != 3 {
		t.Fatalf("got %d intervals, want 3: %+v", len(ivals), ivals)
	}
	if ivals[0].Kind != PFCAssert || ivals[0].From != 10 || ivals[0].To != 30 || ivals[0].Open {
		t.Fatalf("mmu episode 1 = %+v", ivals[0])
	}
	if ivals[1].Kind != PortPaused || ivals[1].From != 15 || ivals[1].To != 100 || !ivals[1].Open {
		t.Fatalf("tx episode = %+v", ivals[1])
	}
	if ivals[2].Kind != PFCAssert || ivals[2].From != 40 || ivals[2].To != 100 || !ivals[2].Open {
		t.Fatalf("mmu episode 2 = %+v", ivals[2])
	}
	if d := ivals[0].Duration(); d != 20 {
		t.Fatalf("duration=%d, want 20", d)
	}
}

func TestPauseIntervalReissueAfterEviction(t *testing.T) {
	// With capacity 2, the original assert is evicted; the reissue must
	// start a fresh episode rather than being dropped.
	r := NewRecorder(2)
	r.RecordPFC(PFCEvent{At: 10, Switch: "s0", Kind: PFCAssert})
	r.RecordPFC(PFCEvent{At: 20, Switch: "s0", Kind: PFCReissue})
	r.RecordPFC(PFCEvent{At: 30, Switch: "s0", Kind: PFCRelease})
	ivals := r.PauseIntervals(100)
	if len(ivals) != 1 || ivals[0].From != 20 || ivals[0].To != 30 || ivals[0].Open {
		t.Fatalf("got %+v, want one closed [20,30] episode", ivals)
	}
}

func TestStatsCountsEviction(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.RecordOcc(OccSample{At: sim.Time(i)})
	}
	st := r.Stats()
	if st.OccSamples != 2 || st.OccEvicted != 3 {
		t.Fatalf("stats=%+v, want 2 retained / 3 evicted", st)
	}
}
