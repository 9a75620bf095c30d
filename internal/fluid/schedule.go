package fluid

import (
	"l2bm/internal/sim"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

// FlowArrival is one scheduled launch: a pristine flow descriptor whose
// Start field is the arrival instant, plus its traffic-class provenance.
type FlowArrival struct {
	Flow   transport.Flow
	Incast bool
}

// Schedule is the complete, deterministic launch plan of a run: every flow
// the workload generators would start within the window, in launch order
// (ascending Start, generator event order within a tick). The retained
// Incast generator carries the query bookkeeping — feed flow completions to
// Incast.OnFlowComplete and read CompletedResponseTimes, exactly as the
// packet path does.
type Schedule struct {
	Flows  []FlowArrival
	Incast *workload.Incast
}

// Workload describes a run's offered traffic: the generators, in install
// order (Poisson configs in slice order, then the incast stream). It is the
// one description both fidelities consume — the packet runner installs this
// value on every shard and Extract replays it — so the two cannot disagree
// on what is offered. Observer fields are ignored by Extract (it installs
// its own collector).
type Workload struct {
	Poisson []workload.PoissonConfig
	Incast  *workload.IncastConfig
}

// collector is the Sink the throwaway engine's generators feed. It records
// a value copy of every flow in launch order.
type collector struct {
	sch    *Schedule
	incast bool
}

func (c *collector) StartFlow(f *transport.Flow) {
	c.sch.Flows = append(c.sch.Flows, FlowArrival{Flow: *f, Incast: c.incast})
}

// Extract replays the workload generators on a throwaway engine seeded like
// the real run and returns the exact launch schedule. Exactness is by
// construction, not by re-deriving RNG draws: the generators' named random
// streams (sim.Source.Stream) depend only on the seed and the stream name,
// and their tick chains are self-scheduling, so the (time, src, dst, size,
// ID) sequence each generator produces is identical whether or not packet
// events run in between.
func Extract(seed int64, wl Workload) (*Schedule, error) {
	eng := sim.NewEngine(seed)
	sch := &Schedule{}

	var window sim.Duration
	for i := range wl.Poisson {
		cfg := wl.Poisson[i]
		cfg.Observer = nil
		g, err := workload.NewPoisson(eng, &collector{sch: sch}, cfg)
		if err != nil {
			return nil, err
		}
		g.Install()
		if cfg.Window > window {
			window = cfg.Window
		}
	}
	if wl.Incast != nil {
		cfg := *wl.Incast
		cfg.Observer = nil
		g, err := workload.NewIncast(eng, &collector{sch: sch, incast: true}, cfg)
		if err != nil {
			return nil, err
		}
		g.Install()
		sch.Incast = g
		if cfg.Window > window {
			window = cfg.Window
		}
	}

	eng.Run(sim.Time(window))
	return sch, nil
}

// NextIncastAt returns the Start of the first incast arrival at index ≥
// from, or (0, false) when none remains. Used by the fluid stepper's burst
// pre-trigger.
func (s *Schedule) NextIncastAt(from int) (sim.Time, bool) {
	for i := from; i < len(s.Flows); i++ {
		if s.Flows[i].Incast {
			return s.Flows[i].Flow.Start, true
		}
	}
	return 0, false
}
