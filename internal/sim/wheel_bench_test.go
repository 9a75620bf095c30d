package sim

import (
	"fmt"
	"testing"
)

// BenchmarkWheelVsHeap measures steady-state scheduler throughput with a
// fixed population of pending events: every dispatched event immediately
// schedules a successor at a uniform-random offset within 1 ms, so the
// queue holds exactly `pending` events throughout. This is the hyperscale
// regime — a 100k-host fabric keeps hundreds of thousands of timers and
// in-flight frames pending — and isolates the queue data structure: the
// heap pays O(log n) sifts through a cache-hostile pointer array, the
// wheel pays O(1) bucket appends plus a cache-resident micro-heap.
//
// The heap arm is the identity tests' reference scheduler (NewHeapEngine:
// one tick spans the run, so every event sits in the heap) and nothing a user
// can select, so the ratio is informational; the wheel's own cost across commits
// is the benchmark's ledger rows sim.event_ns.pending{64,10k,1M}.
func BenchmarkWheelVsHeap(b *testing.B) {
	const span = Duration(1) << 30 // ~1.07 ms, power of two for a cheap mask
	for _, pending := range []int{1_000, 100_000, 1_000_000} {
		for _, kind := range []string{"heap", "wheel"} {
			name := fmt.Sprintf("%s-%s", kind, siSuffix(pending))
			b.Run(name, func(b *testing.B) {
				var eng *Engine
				if kind == "wheel" {
					eng = NewEngineWheel(1, WheelGranularityFor(Microsecond))
				} else {
					eng = NewHeapEngine(1)
				}
				// Deterministic xorshift so both backends replay the same
				// offsets without touching the engine's named streams.
				x := uint64(88172645463325252)
				next := func() Duration {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					return Duration(x & uint64(span-1))
				}
				remaining := 0
				var churn ArgCallback
				churn = func(any) {
					remaining--
					if remaining <= 0 {
						eng.Stop()
						return
					}
					eng.ScheduleArg(next(), churn, nil)
				}
				for i := 0; i < pending; i++ {
					eng.ScheduleArg(next(), churn, nil)
				}
				// Untimed warm-up rotation: cycle the full population once
				// so bucket arrays and the event free list reach their
				// steady-state footprint before measurement starts.
				remaining = pending
				for remaining > 0 {
					eng.RunAll()
				}
				remaining = b.N
				b.ReportAllocs()
				b.ResetTimer()
				for remaining > 0 {
					eng.RunAll()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

func siSuffix(n int) string {
	if n >= 1_000_000 {
		return fmt.Sprintf("%dM", n/1_000_000)
	}
	return fmt.Sprintf("%dk", n/1_000)
}
