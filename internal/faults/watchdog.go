// The no-progress watchdog: a cheap, mechanism-agnostic stall detector that
// complements the structural deadlock detector. The engine keeps firing
// events (timers, scans) even when the fabric is wedged, so "events are
// happening" is not evidence of progress; the watchdog instead samples a
// delivery counter and flags windows where packets sat in switch buffers
// but none reached a host.
package faults

import (
	"l2bm/internal/sim"
)

// Watchdog compares, once per TickOnce, a monotone progress counter
// (delivered data packets) against the previous sample. A window with zero
// progress while switch buffers still hold bytes is a stall: buffered traffic
// that is not moving. RTO quiet periods do not trip it — when every packet has
// either been delivered or dropped, residency is zero and silence is
// legitimate.
type Watchdog struct {
	// Window is the sampling interval, the cadence at which the run's
	// conductor calls TickOnce; it should comfortably exceed the longest
	// legitimate pause a draining fabric can take (PFC pause bursts,
	// multi-hop serialization), so defaults are milliseconds.
	Window sim.Duration
	// Progress returns the monotone delivered-packet counter.
	Progress func() uint64
	// Resident returns total bytes parked in switch buffers.
	Resident func() int64
	// OnStall, if set, observes each stalled window.
	OnStall func(at sim.Time)

	last uint64

	// Stalls counts no-progress windows observed.
	Stalls uint64
	// FirstStallAt records when the first stall was declared.
	FirstStallAt sim.Time
}

// NewWatchdog builds a watchdog with a 2 ms default window, snapshotting the
// progress counter so the first window is measured from install time.
func NewWatchdog(progress func() uint64, resident func() int64) *Watchdog {
	return &Watchdog{
		Window:   2 * sim.Millisecond,
		Progress: progress,
		Resident: resident,
		last:     progress(),
	}
}

// TickOnce runs one no-progress check at now. It is a conductor barrier
// task, fired at every Window multiple: all shard clocks agree, no events
// are in flight, and Progress/Resident closures may aggregate across shards.
func (w *Watchdog) TickOnce(now sim.Time) {
	cur := w.Progress()
	if cur == w.last && w.Resident() > 0 {
		if w.Stalls == 0 {
			w.FirstStallAt = now
		}
		w.Stalls++
		if w.OnStall != nil {
			w.OnStall(now)
		}
	}
	w.last = cur
}
