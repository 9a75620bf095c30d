package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// fakeState is a scriptable StateView for unit-testing policies without a
// switch.
type fakeState struct {
	now       sim.Time
	total     int64
	used      int64
	pool      map[pkt.Class]int64
	qout      map[[2]int]int64
	drain     map[[2]int]int64
	line      int64
	paused    map[[2]int]sim.Duration
	pausedFor map[[2]int]sim.Duration
	ports     int
	congested map[int]int
}

var _ StateView = (*fakeState)(nil)

func newFakeState() *fakeState {
	return &fakeState{
		total:     4 << 20, // 4 MB, the paper's switch buffer
		pool:      make(map[pkt.Class]int64),
		qout:      make(map[[2]int]int64),
		drain:     make(map[[2]int]int64),
		line:      25e9,
		paused:    make(map[[2]int]sim.Duration),
		pausedFor: make(map[[2]int]sim.Duration),
		ports:     8,
		congested: make(map[int]int),
	}
}

func (f *fakeState) Now() sim.Time                         { return f.now }
func (f *fakeState) TotalShared() int64                    { return f.total }
func (f *fakeState) SharedUsed() int64                     { return f.used }
func (f *fakeState) EgressPoolUsed(c pkt.Class) int64      { return f.pool[c] }
func (f *fakeState) EgressQueueBytes(port, prio int) int64 { return f.qout[[2]int{port, prio}] }
func (f *fakeState) EgressLineRate(int) int64              { return f.line }
func (f *fakeState) NumPorts() int                         { return f.ports }
func (f *fakeState) CongestedEgressQueues(prio int) int    { return f.congested[prio] }

func (f *fakeState) EgressDrainRate(port, prio int) int64 {
	if r, ok := f.drain[[2]int{port, prio}]; ok {
		return r
	}
	return f.line
}

func (f *fakeState) EgressPausedTime(port, prio int) sim.Duration {
	return f.paused[[2]int{port, prio}]
}

func (f *fakeState) EgressPausedFor(port, prio int) sim.Duration {
	return f.pausedFor[[2]int{port, prio}]
}
