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

// BenchmarkColfmtWrite measures the columnar export of that recorder:
// throughput via ns/op and the artifact size via the artifact-B metric. The
// one arm keeps its sub-benchmark name so BENCH_BASELINE.json's row still
// guards it.
func BenchmarkColfmtWrite(b *testing.B) {
	r, horizon := benchRecorder()

	b.Run("col", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			f := colfmt.NewFile()
			r.AppendCol(f, horizon)
			if _, err := f.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "artifact-B")
	})
}
