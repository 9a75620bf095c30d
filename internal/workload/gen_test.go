package workload

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// captureSink records started flows without running a network.
type captureSink struct {
	flows []*transport.Flow
}

func (s *captureSink) StartFlow(f *transport.Flow) { s.flows = append(s.flows, f) }

func hostsRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func poissonCfg() PoissonConfig {
	return PoissonConfig{
		Sources:    hostsRange(8),
		Dests:      hostsRange(8),
		Load:       0.5,
		HostRate:   25e9,
		Sizes:      WebSearchCDF(),
		Priority:   pkt.PrioLossy,
		Class:      pkt.ClassLossy,
		Window:     20 * sim.Millisecond,
		StreamName: "test",
		IDTag:      1,
	}
}

func TestPoissonOfferedLoad(t *testing.T) {
	eng := sim.NewEngine(11)
	sink := &captureSink{}
	cfg := poissonCfg()
	cfg.Window = 100 * sim.Millisecond
	g, err := NewPoisson(eng, sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Install()
	eng.RunAll()

	// Offered bits per host per second ≈ load × rate.
	perHost := float64(g.BytesOffered) * 8 / float64(len(cfg.Sources)) / cfg.Window.Seconds()
	want := cfg.Load * float64(cfg.HostRate)
	if math.Abs(perHost-want)/want > 0.25 {
		t.Errorf("offered load %v bps/host, want within 25%% of %v", perHost, want)
	}
	if g.Generated == 0 || uint64(len(sink.flows)) != g.Generated {
		t.Errorf("generated %d, sink got %d", g.Generated, len(sink.flows))
	}
}

func TestPoissonNeverSelfSends(t *testing.T) {
	eng := sim.NewEngine(11)
	sink := &captureSink{}
	g, err := NewPoisson(eng, sink, poissonCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.Install()
	eng.RunAll()
	for _, f := range sink.flows {
		if f.Src == f.Dst {
			t.Fatalf("flow %d sends to itself", f.ID)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("generated invalid flow: %v", err)
		}
	}
}

func TestPoissonStopsAtWindow(t *testing.T) {
	eng := sim.NewEngine(11)
	sink := &captureSink{}
	cfg := poissonCfg()
	var lastGen sim.Time
	cfg.Observer = func(*transport.Flow) { lastGen = eng.Now() }
	g, _ := NewPoisson(eng, sink, cfg)
	g.Install()
	eng.RunAll()
	if g.Generated == 0 {
		t.Fatal("nothing generated")
	}
	if lastGen >= cfg.Window {
		t.Errorf("flow generated at %v, at/after window %v", lastGen, cfg.Window)
	}
}

func TestPoissonObserverSeesEveryFlow(t *testing.T) {
	eng := sim.NewEngine(11)
	sink := &captureSink{}
	cfg := poissonCfg()
	seen := 0
	cfg.Observer = func(f *transport.Flow) { seen++ }
	g, _ := NewPoisson(eng, sink, cfg)
	g.Install()
	eng.RunAll()
	if uint64(seen) != g.Generated {
		t.Errorf("observer saw %d of %d flows", seen, g.Generated)
	}
}

func TestPoissonValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	tests := []struct {
		name   string
		mutate func(*PoissonConfig)
	}{
		{"no sources", func(c *PoissonConfig) { c.Sources = nil }},
		{"one dest", func(c *PoissonConfig) { c.Dests = []int{1} }},
		{"zero load", func(c *PoissonConfig) { c.Load = 0 }},
		{"negative load", func(c *PoissonConfig) { c.Load = -0.5 }},
		// NaN passes a bare `<= 0` test and Install then converts a NaN gap
		// to sim.Duration; +Inf yields a 1 ps gap.
		{"NaN load", func(c *PoissonConfig) { c.Load = math.NaN() }},
		{"+Inf load", func(c *PoissonConfig) { c.Load = math.Inf(1) }},
		{"-Inf load", func(c *PoissonConfig) { c.Load = math.Inf(-1) }},
		{"zero rate", func(c *PoissonConfig) { c.HostRate = 0 }},
		{"no sizes", func(c *PoissonConfig) { c.Sizes = nil }},
		{"zero window", func(c *PoissonConfig) { c.Window = 0 }},
		{"zero IDTag", func(c *PoissonConfig) { c.IDTag = 0 }},
		{"Dests only the source", func(c *PoissonConfig) { c.Sources, c.Dests = []int{3}, []int{3, 3} }},
		{"Forbid strands one source", func(c *PoissonConfig) {
			c.Forbid = func(src, dst int) bool { return src == 5 }
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := poissonCfg()
			tt.mutate(&cfg)
			if _, err := NewPoisson(eng, &captureSink{}, cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestPoissonRefusesForbidWithoutDestination: a Forbid that rejects every
// destination used to pass NewPoisson and panic at the first arrival, after
// 10,000 rejected draws. The constructor refuses it, so nothing is scheduled.
func TestPoissonRefusesForbidWithoutDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := poissonCfg()
	cfg.Forbid = func(src, dst int) bool { return true }
	g, err := NewPoisson(eng, &captureSink{}, cfg)
	if err == nil || g != nil {
		t.Fatalf("NewPoisson = %v, %v; want an error and no generator", g, err)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events scheduled for a refused generator", eng.Pending())
	}
	// One admissible destination per source is enough.
	cfg.Forbid = func(src, dst int) bool { return dst != (src+1)%8 }
	if _, err := NewPoisson(eng, &captureSink{}, cfg); err != nil {
		t.Errorf("a Forbid admitting one destination per source: %v", err)
	}
}

func incastCfg() IncastConfig {
	return IncastConfig{
		Hosts:        hostsRange(16),
		Fanout:       5,
		RequestBytes: 1 << 20,
		QueryRate:    752,
		Window:       50 * sim.Millisecond,
		Priority:     pkt.PrioLossless,
		Class:        pkt.ClassLossless,
		StreamName:   "incast-test",
		IDTag:        2,
	}
}

func TestIncastQueryShape(t *testing.T) {
	eng := sim.NewEngine(13)
	sink := &captureSink{}
	g, err := NewIncast(eng, sink, incastCfg())
	if err != nil {
		t.Fatal(err)
	}
	g.Install()
	eng.RunAll()

	if len(g.Queries()) == 0 {
		t.Fatal("no queries issued")
	}
	if g.FlowsGenerated != uint64(len(g.Queries())*5) {
		t.Errorf("flows = %d, want 5 per query (%d queries)", g.FlowsGenerated, len(g.Queries()))
	}
	// Every flow's size is the shard and none self-sends.
	shard := int64(1<<20) / 5
	byQuery := make(map[int][]*transport.Flow)
	i := 0
	for _, q := range g.Queries() {
		for j := 0; j < 5; j++ {
			f := sink.flows[i]
			i++
			if f.Size != shard {
				t.Fatalf("flow size %d, want shard %d", f.Size, shard)
			}
			if f.Dst != q.Target {
				t.Fatalf("flow targets %d, want query target %d", f.Dst, q.Target)
			}
			if f.Src == q.Target {
				t.Fatal("responder equals target")
			}
			byQuery[q.ID] = append(byQuery[q.ID], f)
		}
	}
	// Responders within a query are distinct.
	for id, fs := range byQuery {
		seen := map[int]bool{}
		for _, f := range fs {
			if seen[f.Src] {
				t.Fatalf("query %d reuses responder %d", id, f.Src)
			}
			seen[f.Src] = true
		}
	}
}

func TestIncastQueryRate(t *testing.T) {
	eng := sim.NewEngine(13)
	cfg := incastCfg()
	cfg.Window = 500 * sim.Millisecond
	g, _ := NewIncast(eng, &captureSink{}, cfg)
	g.Install()
	eng.RunAll()

	// Paper: 376 requests in 0.5 s at λ=752/s.
	got := float64(len(g.Queries()))
	if math.Abs(got-376)/376 > 0.2 {
		t.Errorf("queries = %v in 0.5s, want ≈376", got)
	}
}

func TestIncastCompletionTracking(t *testing.T) {
	eng := sim.NewEngine(13)
	sink := &captureSink{}
	cfg := incastCfg()
	cfg.QueryRate = 100
	cfg.Window = 10 * sim.Millisecond
	g, _ := NewIncast(eng, sink, cfg)
	g.Install()
	eng.RunAll()
	if len(g.Queries()) == 0 {
		t.Skip("no queries in short window")
	}

	// Complete all flows of the first query with staggered times.
	q := g.Queries()[0]
	var qFlows []*transport.Flow
	for _, f := range sink.flows {
		if f.Dst == q.Target && len(qFlows) < 5 {
			qFlows = append(qFlows, f)
		}
	}
	base := eng.Now()
	for i, f := range qFlows {
		g.OnFlowComplete(f.ID, base+sim.Duration(i)*sim.Microsecond)
	}
	if !q.Complete {
		t.Fatal("query not complete after all flows finished")
	}
	if q.Done != base+4*sim.Microsecond {
		t.Errorf("query done at %v, want max FCT %v", q.Done, base+4*sim.Microsecond)
	}
	if got := len(g.CompletedResponseTimes()); got != 1 {
		t.Errorf("completed queries = %d, want 1", got)
	}
	// Unknown flow IDs are ignored.
	g.OnFlowComplete(999_999, base)
}

func TestIncastValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	tests := []struct {
		name   string
		mutate func(*IncastConfig)
	}{
		{"one host", func(c *IncastConfig) { c.Hosts = []int{0} }},
		{"fanout too big", func(c *IncastConfig) { c.Fanout = 16 }},
		{"fanout zero", func(c *IncastConfig) { c.Fanout = 0 }},
		{"tiny request", func(c *IncastConfig) { c.RequestBytes = 2 }},
		{"zero rate", func(c *IncastConfig) { c.QueryRate = 0 }},
		{"negative rate", func(c *IncastConfig) { c.QueryRate = -1 }},
		{"NaN rate", func(c *IncastConfig) { c.QueryRate = math.NaN() }},
		{"+Inf rate", func(c *IncastConfig) { c.QueryRate = math.Inf(1) }},
		{"-Inf rate", func(c *IncastConfig) { c.QueryRate = math.Inf(-1) }},
		{"zero window", func(c *IncastConfig) { c.Window = 0 }},
		{"zero IDTag", func(c *IncastConfig) { c.IDTag = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := incastCfg()
			tt.mutate(&cfg)
			if _, err := NewIncast(eng, &captureSink{}, cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestPoissonInstallMidRunGeneratesFullWindow(t *testing.T) {
	// Regression: the tick guard used to compare Now() against Window as an
	// ABSOLUTE deadline, so a generator installed at t >= Window generated
	// nothing, and one installed at 0 < t < Window got a truncated span.
	// The window is elapsed-since-install.
	eng := sim.NewEngine(11)
	sink := &captureSink{}
	cfg := poissonCfg()
	cfg.Window = 5 * sim.Millisecond
	install := 3 * cfg.Window // well past the old absolute deadline

	var first, last sim.Time = -1, -1
	cfg.Observer = func(*transport.Flow) {
		if first < 0 {
			first = eng.Now()
		}
		last = eng.Now()
	}
	g, err := NewPoisson(eng, sink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(sim.Duration(install), func() { g.Install() })
	eng.RunAll()

	if g.Generated == 0 {
		t.Fatal("mid-run install generated nothing (absolute-window bug)")
	}
	if first < install {
		t.Errorf("first flow at %v, before install at %v", first, install)
	}
	if last >= install+sim.Time(cfg.Window) {
		t.Errorf("flow generated at %v, at/after elapsed window end %v", last, install+sim.Time(cfg.Window))
	}
	// The generator must use its whole window, not a truncated remainder:
	// expect activity well into the second half of the elapsed window.
	if last < install+sim.Time(cfg.Window/2) {
		t.Errorf("last flow at %v: window truncated (ends %v)", last, install+sim.Time(cfg.Window))
	}
}

func TestIncastInstallMidRunGeneratesFullWindow(t *testing.T) {
	eng := sim.NewEngine(7)
	sink := &captureSink{}
	window := 5 * sim.Millisecond
	install := 2 * window
	g, err := NewIncast(eng, sink, IncastConfig{
		Hosts:        hostsRange(8),
		Fanout:       4,
		RequestBytes: 1 << 16,
		QueryRate:    5000,
		Window:       window,
		Priority:     pkt.PrioLossless,
		Class:        pkt.ClassLossless,
		StreamName:   "incast-midrun",
		IDTag:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(sim.Duration(install), func() { g.Install() })
	eng.RunAll()
	if g.FlowsGenerated == 0 {
		t.Fatal("mid-run incast install generated nothing (absolute-window bug)")
	}
	for _, q := range g.Queries() {
		if q.Issued < install || q.Issued >= install+sim.Time(window) {
			t.Errorf("query issued at %v, outside [%v, %v)", q.Issued, install, install+sim.Time(window))
		}
	}
}

// install10k installs one traffic class on a 10,240-host fabric: every host
// gets its three named random streams and its first arrival scheduled. Only
// the arrivals stream is drawn from here; the sizes and dests streams of a
// host stay untouched until it launches a flow (most hosts of a short window
// never do), so what it allocates is what an idle host costs.
func install10k(tb testing.TB) {
	cfg := poissonCfg()
	cfg.Sources, cfg.Dests = hostsRange(10_240), hostsRange(10_240)
	cfg.Load = 0.05
	cfg.Window = 200 * sim.Microsecond
	g, err := NewPoisson(sim.NewEngine(1), &captureSink{}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g.Install()
}

// TestIdleHostInstallBytes: an installed, idle host costs at most 600 B
// (measured 446 B). A random stream that seeds its 4.9 kB state vector at
// its first draw costs 5.8 kB per host and one that seeds it at creation
// 16.6 kB; at 100k hosts that is 45 MB against 0.6 or 1.7 GB.
func TestIdleHostInstallBytes(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's allocator pads small objects (665 B per host)")
			}
		}
	}
	install10k(t) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	install10k(t)
	runtime.ReadMemStats(&after)
	perHost := float64(after.TotalAlloc-before.TotalAlloc) / 10_240
	t.Logf("%.0f B allocated per installed host", perHost)
	if perHost > 600 {
		t.Errorf("installing a traffic class allocates %.0f B per host, want <= 600", perHost)
	}
}

// BenchmarkPoissonInstall prices install10k; run with -benchmem.
func BenchmarkPoissonInstall(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			install10k(b)
		}
	})
}
