package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"l2bm/internal/colfmt"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// benchRecorder builds a deterministic synthetic flight recorder shaped
// like a traced tiny-scale run: monotone timestamps, a small switch-name
// vocabulary, bursty PFC episodes.
func benchRecorder() (*Recorder, sim.Time) {
	r := NewRecorder(1 << 17)
	rng := rand.New(rand.NewSource(42))
	switches := make([]string, 8)
	for i := range switches {
		switches[i] = fmt.Sprintf("tor-%02d", i)
	}
	var at sim.Time
	for i := 0; i < 50_000; i++ {
		at += sim.Time(rng.Intn(100_000) + 1)
		r.RecordOcc(OccSample{At: at, Switch: switches[i%len(switches)],
			Resident: int64(rng.Intn(1 << 20)), SharedUsed: int64(rng.Intn(1 << 19))})
		if i%10 == 0 {
			r.RecordWeight(WeightSample{At: at, Switch: switches[i%len(switches)],
				Port: i % 4, Prio: i % 2, Tau: sim.Duration(rng.Intn(1_000_000)),
				Weight: rng.Float64(), Threshold: int64(rng.Intn(1 << 18))})
		}
		if i%25 == 0 {
			kind := PFCAssert
			if i%50 == 0 {
				kind = PFCRelease
			}
			r.RecordPFC(PFCEvent{At: at, Switch: switches[i%len(switches)],
				Port: i % 4, Prio: 0, Kind: kind})
		}
		if i%5 == 0 {
			class, kind := pkt.ClassLossy, DropLossyIngress
			if i%10 == 0 {
				class, kind = pkt.ClassLossless, HeadroomEnter
			}
			r.RecordPacketEvent(PacketEvent{At: at, Switch: switches[i%len(switches)],
				Port: i % 4, Prio: i % 2, Kind: kind, Size: 1500, Class: class})
		}
	}
	return r, at + 1
}

// exportCol is the columnar export the run harness performs per traced point
// (exp.Result.WriteCol): the recorder's channels appended to a fresh file,
// the file encoded into buf.
func exportCol(tb testing.TB, r *Recorder, horizon sim.Time, buf *bytes.Buffer) {
	buf.Reset()
	f := colfmt.NewFile()
	r.AppendCol(f, horizon)
	if _, err := f.WriteTo(buf); err != nil {
		tb.Fatal(err)
	}
}

// TestExportColAllocBudget: exporting the 67,000-row synthetic recording
// allocates per column and per block, not per row — 117 allocations measured
// into a warm buffer (277 into a cold one, which is what a -benchtime=1x run
// reads), 146 allowed; one allocation per row would be 67,000.
func TestExportColAllocBudget(t *testing.T) {
	r, horizon := benchRecorder()
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(5, func() { exportCol(t, r, horizon, &buf) })
	t.Logf("%.0f allocations for a %d-byte artifact", allocs, buf.Len())
	if allocs > 146 {
		t.Errorf("columnar export allocates %.0f times, want <= 146 (measured 117)", allocs)
	}
}

// BenchmarkColfmtWrite measures that export: throughput via ns/op and the
// artifact size via the artifact-B metric.
func BenchmarkColfmtWrite(b *testing.B) {
	r, horizon := benchRecorder()

	b.Run("col", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			exportCol(b, r, horizon, &buf)
		}
		b.ReportMetric(float64(buf.Len()), "artifact-B")
	})
}
