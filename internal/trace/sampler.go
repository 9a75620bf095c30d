package trace

import (
	"l2bm/internal/sim"
)

// SwitchView is the minimal read-only surface the sampler needs from a
// switch. It is satisfied by *switchsim.Switch; trace deliberately does not
// import switchsim (switchsim imports trace for its probe hooks).
type SwitchView interface {
	// Name returns the switch's identifier as used in trace records.
	Name() string
	// Occupancy returns total resident bytes (reserved + shared + headroom).
	Occupancy() int64
	// SharedUsed returns the shared-service-pool usage Q(t).
	SharedUsed() int64
}

// Probe is a user-supplied periodic probe: called at every sampler tick with
// the current simulation time, it reads model state and appends records.
// Probes MUST be pure reads of the model (the observer-effect contract):
// they may only mutate the recorder.
type Probe func(now sim.Time, rec *Recorder)

// Sampler drives periodic occupancy sampling (and any registered probes)
// off the simulation engine. It schedules itself as ordinary engine events,
// which changes event sequence numbers but — because its callbacks are pure
// reads — cannot change the relative order or outcome of model events.
type Sampler struct {
	eng     *sim.Engine
	rec     *Recorder
	every   sim.Duration
	sws     []SwitchView
	probes  []Probe
	stopped bool

	// Ticks counts the sampler's executed engine events. A sharded run arms
	// one sampler per shard where one engine arms one, and Result.Events
	// counts one chain.
	Ticks uint64

	// until is the sampling horizon; tickFn is the pre-bound tick body so
	// each rescheduling tick costs zero allocations instead of a fresh
	// closure per tick.
	until  sim.Time
	tickFn sim.Callback
}

// NewSampler returns a sampler ticking every `every` picoseconds. It panics
// on a non-positive interval (a zero interval would stall the engine).
func NewSampler(eng *sim.Engine, rec *Recorder, every sim.Duration) *Sampler {
	if every <= 0 {
		panic("trace: sampler interval must be positive")
	}
	s := &Sampler{eng: eng, rec: rec, every: every}
	s.tickFn = s.tick
	return s
}

// AddSwitch registers a switch for periodic occupancy sampling.
func (s *Sampler) AddSwitch(v SwitchView) { s.sws = append(s.sws, v) }

// AddProbe registers an extra per-tick probe (e.g. an L2BM weight reader).
func (s *Sampler) AddProbe(p Probe) { s.probes = append(s.probes, p) }

// Start schedules the first tick one interval from now and keeps ticking
// until the simulation clock passes `until` or Stop is called.
func (s *Sampler) Start(until sim.Time) {
	s.until = until
	s.eng.Schedule(s.every, s.tickFn)
}

// Stop halts the sampler after the current tick.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	s.Ticks++
	if s.stopped {
		return
	}
	now := s.eng.Now()
	if now > s.until {
		return
	}
	for _, sw := range s.sws {
		s.rec.RecordOcc(OccSample{
			At:         now,
			Switch:     sw.Name(),
			Resident:   sw.Occupancy(),
			SharedUsed: sw.SharedUsed(),
		})
	}
	for _, p := range s.probes {
		p(now, s.rec)
	}
	s.eng.Schedule(s.every, s.tickFn)
}
