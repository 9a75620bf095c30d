// Package topo builds the paper's evaluation network (Fig. 6): a three-layer
// Clos with 2 core switches, 4 aggregation switches, 4 ToR switches and 32
// servers per rack — 25 Gbps access links, 100 Gbps fabric links, 1 µs
// propagation everywhere except 5 µs between aggregation and core. The
// fabric is organized in pods (2 by default): a ToR connects to every
// aggregation switch in its pod, and every aggregation switch connects to
// every core. Per-flow ECMP hashing spreads load over the parallel paths.
//
// Everything is parameterized so tests and benchmarks can shrink the
// cluster while experiments run the paper-scale version.
package topo

import (
	"fmt"

	"l2bm/internal/core"
	"l2bm/internal/dcqcn"
	"l2bm/internal/dctcp"
	"l2bm/internal/host"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/transport"
)

// Config describes the cluster to build.
type Config struct {
	// Pods partitions ToRs and aggregation switches into pods.
	Pods int
	// CoreCount, AggCount and ToRCount size the switch layers (AggCount
	// and ToRCount must divide evenly by Pods).
	CoreCount int
	AggCount  int
	ToRCount  int
	// ServersPerToR is the rack size.
	ServersPerToR int
	// ServerRate and FabricRate are the link speeds in bits/s.
	ServerRate int64
	FabricRate int64
	// ServerDelay, TorAggDelay and AggCoreDelay are one-way propagation
	// delays.
	ServerDelay  sim.Duration
	TorAggDelay  sim.Duration
	AggCoreDelay sim.Duration
	// Switch configures every switch MMU.
	Switch switchsim.Config
	// DCTCP and DCQCN configure host transports. DCQCN.LineRate is
	// overridden with ServerRate when zero.
	DCTCP dctcp.Config
	DCQCN dcqcn.Config

	// DisablePacketPool turns off packet recycling: every frame is heap-
	// allocated and left to the GC, the pre-pool behaviour. The determinism
	// suite uses it as the control arm — pooled and pool-disabled runs must
	// be byte-identical.
	DisablePacketPool bool
	// PacketPoolDebug arms the pool's use-after-free audit (a map operation
	// per Get/Put): leaked packets become reportable and freed packets are
	// poisoned. Ignored when DisablePacketPool is set.
	PacketPoolDebug bool
}

// DefaultConfig returns the paper's topology (§IV Setup): 128 servers,
// 10 switches, 25/100 Gbps, 4 MB shared buffer.
func DefaultConfig() Config {
	return Config{
		Pods:          2,
		CoreCount:     2,
		AggCount:      4,
		ToRCount:      4,
		ServersPerToR: 32,
		ServerRate:    25e9,
		FabricRate:    100e9,
		ServerDelay:   sim.Microsecond,
		TorAggDelay:   sim.Microsecond,
		AggCoreDelay:  5 * sim.Microsecond,
		Switch:        switchsim.DefaultConfig(),
		DCTCP:         dctcp.DefaultConfig(),
		DCQCN:         dcqcn.DefaultConfig(25e9),
	}
}

// TinyConfig returns a scaled-down cluster (2 pods × 1 ToR × 4 servers) for
// tests and fast benchmarks, preserving the paper's oversubscription shape.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Pods = 2
	cfg.CoreCount = 1
	cfg.AggCount = 2
	cfg.ToRCount = 2
	cfg.ServersPerToR = 4
	return cfg
}

// Validate reports configuration errors, including the silent-garbage class:
// negative propagation delays and malformed switch MMU parameters would
// otherwise survive into thresholds as nonsense values. Every check names
// the single offending field in a one-line message, so a bad pod count
// fails here instead of surfacing as a wiring panic deep in Build.
func (c *Config) Validate() error {
	switch {
	case c.Pods <= 0:
		return fmt.Errorf("topo: Pods = %d, want > 0", c.Pods)
	case c.ToRCount <= 0:
		return fmt.Errorf("topo: ToRCount = %d, want > 0", c.ToRCount)
	case c.ToRCount%c.Pods != 0:
		return fmt.Errorf("topo: ToRCount = %d does not divide evenly across Pods = %d", c.ToRCount, c.Pods)
	case c.AggCount <= 0:
		return fmt.Errorf("topo: AggCount = %d, want > 0", c.AggCount)
	case c.AggCount%c.Pods != 0:
		return fmt.Errorf("topo: AggCount = %d does not divide evenly across Pods = %d", c.AggCount, c.Pods)
	case c.CoreCount <= 0:
		return fmt.Errorf("topo: CoreCount = %d, want > 0", c.CoreCount)
	case c.ServersPerToR <= 0:
		return fmt.Errorf("topo: ServersPerToR = %d, want > 0", c.ServersPerToR)
	case c.ServerRate <= 0:
		return fmt.Errorf("topo: ServerRate = %d bps, want > 0", c.ServerRate)
	case c.FabricRate <= 0:
		return fmt.Errorf("topo: FabricRate = %d bps, want > 0", c.FabricRate)
	case c.ServerDelay < 0:
		return fmt.Errorf("topo: ServerDelay = %v, want >= 0", c.ServerDelay)
	case c.TorAggDelay < 0:
		return fmt.Errorf("topo: TorAggDelay = %v, want >= 0", c.TorAggDelay)
	case c.AggCoreDelay < 0:
		return fmt.Errorf("topo: AggCoreDelay = %v, want >= 0", c.AggCoreDelay)
	}
	if err := c.Switch.Validate(); err != nil {
		return fmt.Errorf("topo: %w", err)
	}
	// Every cable consumes two arrival keys and netdev caps port keys at
	// 2^20 (keys pack into the 64-bit (key, txSeq) arrival tie-break), so
	// the cable count bounds fabric size. Catch it here with the real
	// numbers instead of panicking mid-wiring.
	links := c.Hosts() + c.ToRCount*(c.AggCount/c.Pods) + c.AggCount*c.CoreCount
	if 2*links >= 1<<20 {
		return fmt.Errorf("topo: %d cables need %d arrival keys, exceeding the 2^20 key space (shrink the fabric below %d cables)",
			links, 2*links, 1<<19)
	}
	return nil
}

// Hosts returns the total number of servers the configuration describes.
func (c *Config) Hosts() int { return c.ToRCount * c.ServersPerToR }

// SwitchNames returns the name of every switch the configuration builds, in
// index order: ToRs ("tor0"…), then aggregation ("agg0"…), then core
// ("core0"…) switches. Build names its switches from it, and a fault plan's
// blackout must name one of them.
func (c *Config) SwitchNames() []string {
	names := make([]string, 0, c.ToRCount+c.AggCount+c.CoreCount)
	for _, layer := range []struct {
		prefix string
		n      int
	}{{"tor", c.ToRCount}, {"agg", c.AggCount}, {"core", c.CoreCount}} {
		for i := 0; i < layer.n; i++ {
			names = append(names, fmt.Sprintf("%s%d", layer.prefix, i))
		}
	}
	return names
}

// MinPropDelay returns the smallest positive propagation delay in the
// fabric, or 0 when every delay is zero: no two causally related events
// across a cable are closer than one hop.
func (c *Config) MinPropDelay() sim.Duration {
	min := sim.Duration(0)
	for _, d := range []sim.Duration{c.ServerDelay, c.TorAggDelay, c.AggCoreDelay} {
		if d > 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// PolicyFactory creates one buffer-management policy instance per switch
// (policies such as L2BM carry per-switch state and must not be shared).
type PolicyFactory func() core.Policy

// LinkTier classifies a cable by the layer pair it connects.
type LinkTier int

const (
	// TierServer is a host↔ToR access link.
	TierServer LinkTier = iota + 1
	// TierTorAgg is a ToR↔aggregation fabric link.
	TierTorAgg
	// TierAggCore is an aggregation↔core fabric link.
	TierAggCore
)

// String implements fmt.Stringer.
func (t LinkTier) String() string {
	switch t {
	case TierServer:
		return "server"
	case TierTorAgg:
		return "tor-agg"
	case TierAggCore:
		return "agg-core"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Link is one bidirectional cable in the built cluster, addressable by the
// fault-injection layer. A is the port on the lower (server-side) device, B
// on the upper; taking the link down disables the carrier in both
// directions.
type Link struct {
	Index        int
	Name         string
	Tier         LinkTier
	A, B         *netdev.Port
	AName, BName string

	// AShard and BShard are the shards owning each endpoint (equal unless
	// the cable crosses a shard boundary in a sharded build).
	AShard, BShard int

	// Layer-local coordinates into the liveness matrices.
	tor, aggLocal int // TierTorAgg
	agg, core     int // TierAggCore

	cl *Cluster
}

// Up reports whether the link currently has carrier. Liveness is tracked
// per shard (each shard replays the same fault process); all replicas agree
// at barriers, so shard 0's view is authoritative for observers.
func (l *Link) Up() bool { return l.cl.states[0].linkUp[l.Index] }

// CrossShard reports whether the cable's endpoints live on different shards.
func (l *Link) CrossShard() bool { return l.AShard != l.BShard }

// shardState is one shard's private replica of the fabric-liveness tables
// the routers consult. Every shard replays the identical fault process (the
// injector is replicated), so the replicas agree at barriers; giving each
// shard its own copy means routers never read state another shard writes
// mid-epoch.
type shardState struct {
	torAggUp   [][]bool // [torGlobal][aggWithinPod]
	aggCoreUp  [][]bool // [aggGlobal][core]
	linkUp     []bool   // [linkIndex]
	fabricDown int      // count of fabric links currently down (fast path)
}

// shardLedger is a pkt.Ledger alone on its cache lines: every shard writes
// its ledger on every data frame, each from its own goroutine, and
// neighbouring slice elements would otherwise share a line.
type shardLedger struct {
	pkt.Ledger
	_ [128 - 3*8]byte
}

// Cluster is a built network.
type Cluster struct {
	// Engines holds one engine per shard (length 1 for a Build).
	// All engines must share the same seed: replicated generators rely on
	// identical named streams across shards.
	Engines []*sim.Engine
	// Part is the node→shard map the cluster was wired with.
	Part *Partition

	Cfg   Config
	Hosts []*host.Host
	ToRs  []*switchsim.Switch
	Aggs  []*switchsim.Switch
	Cores []*switchsim.Switch

	// Pools holds one free list per shard (nil entries when
	// Cfg.DisablePacketPool): a pool is single-threaded state, so each shard
	// owns its own and cross-shard frames change pools via Export/Import at
	// the lane boundary.
	Pools []*pkt.Pool
	// ledgers holds one flow-byte ledger per shard, written by that shard's
	// hosts and ports only (DataBytes sums them).
	ledgers []shardLedger

	// Lookahead is the minimum propagation delay over cross-shard links —
	// the conductor's epoch bound. Zero when no link crosses a shard.
	Lookahead sim.Duration

	// Link registry and per-shard liveness replicas.
	links  []*Link
	states []*shardState
	// inbound[s] lists the lanes into shard s, in wiring order.
	inbound [][]*netdev.Lane
}

// Build wires the cluster on a single engine and installs routing. Flow
// completions are fanned out to onComplete (may be nil).
func Build(eng *sim.Engine, cfg Config, newPolicy PolicyFactory, onComplete host.CompletionHandler) (*Cluster, error) {
	part, err := ComputePartition(cfg, 1)
	if err != nil {
		return nil, err
	}
	return BuildSharded([]*sim.Engine{eng}, part, cfg, newPolicy,
		func(int) host.CompletionHandler { return onComplete })
}

// BuildSharded wires the cluster across len(engines) shards following part:
// every node lives on its shard's engine, shard-local links are ordinary
// same-engine cables, and each direction of a cross-shard link rides the
// netdev.Lane of its ordered shard pair, which the psim conductor seals at
// barriers (Inbound lists them per receiving shard). Every port, at every
// shard count, receives a global wiring-order arrival key, so frame dispatch
// order is a function of the wiring alone and identical results fall out
// for every shard count. onCompleteFor returns the completion
// handler for each shard's hosts (per-shard recorders; may return nil), so
// completion recording needs no cross-shard synchronization.
//
// All engines must carry the same seed: workload generators are replicated
// per shard and rely on identically-named RNG streams drawing identical
// sequences everywhere.
func BuildSharded(engines []*sim.Engine, part *Partition, cfg Config, newPolicy PolicyFactory, onCompleteFor func(shard int) host.CompletionHandler) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if part == nil || part.Shards != len(engines) {
		return nil, fmt.Errorf("topo: partition shards and engine count disagree")
	}
	if part.Shards > 1 && (cfg.TorAggDelay <= 0 || cfg.AggCoreDelay <= 0) {
		return nil, fmt.Errorf("topo: sharded builds need positive fabric propagation delays (lookahead)")
	}
	if cfg.DCQCN.LineRate == 0 {
		cfg.DCQCN = dcqcn.DefaultConfig(cfg.ServerRate)
	}
	cl := &Cluster{Engines: engines, Part: part, Cfg: cfg}
	cl.Pools = make([]*pkt.Pool, part.Shards)
	if !cfg.DisablePacketPool {
		for i := range cl.Pools {
			if cfg.PacketPoolDebug {
				cl.Pools[i] = pkt.NewDebugPool()
			} else {
				cl.Pools[i] = pkt.NewPool()
			}
		}
	}
	cl.ledgers = make([]shardLedger, part.Shards)
	cl.states = make([]*shardState, part.Shards)
	for i := range cl.states {
		cl.states[i] = &shardState{
			torAggUp:  make([][]bool, cfg.ToRCount),
			aggCoreUp: make([][]bool, cfg.AggCount),
		}
	}

	// Flyweight descriptors: one immutable switch Config and one LinkClass
	// per tier, shared across every switch/cable — per-node state is then the
	// counters, not the configuration.
	swCfg := cfg.Switch
	serverClass := &netdev.LinkClass{Rate: cfg.ServerRate, Prop: cfg.ServerDelay}
	torAggClass := &netdev.LinkClass{Rate: cfg.FabricRate, Prop: cfg.TorAggDelay}
	aggCoreClass := &netdev.LinkClass{Rate: cfg.FabricRate, Prop: cfg.AggCoreDelay}

	names := cfg.SwitchNames()
	for i := 0; i < cfg.ToRCount; i++ {
		cl.ToRs = append(cl.ToRs, switchsim.NewSwitchShared(engines[part.ToR[i]], names[i], &swCfg, newPolicy()))
	}
	for i := 0; i < cfg.AggCount; i++ {
		cl.Aggs = append(cl.Aggs, switchsim.NewSwitchShared(engines[part.Agg[i]], names[cfg.ToRCount+i], &swCfg, newPolicy()))
	}
	for i := 0; i < cfg.CoreCount; i++ {
		cl.Cores = append(cl.Cores, switchsim.NewSwitchShared(engines[part.Core[i]], names[cfg.ToRCount+cfg.AggCount+i], &swCfg, newPolicy()))
	}

	// nextKey numbers ports in global wiring order (1-based): the key is
	// the mode-invariant tiebreak for same-tick arrivals, so it must be a
	// pure function of the wiring, never of the shard layout.
	nextKey := uint64(1)
	// One lane per ordered shard pair a cable crosses, made the first time
	// one does.
	lanes := make(map[[2]int]*netdev.Lane)
	cl.inbound = make([][]*netdev.Lane, part.Shards)
	lane := func(from, to int) *netdev.Lane {
		l := lanes[[2]int{from, to}]
		if l == nil {
			l = new(netdev.Lane)
			lanes[[2]int{from, to}] = l
			cl.inbound[to] = append(cl.inbound[to], l)
		}
		return l
	}
	connect := func(sa, sb int, a, b netdev.Node, class *netdev.LinkClass) (*netdev.Port, *netdev.Port) {
		var ab, ba *netdev.Lane
		if sa != sb {
			ab, ba = lane(sa, sb), lane(sb, sa)
			if cl.Lookahead == 0 || class.Prop < cl.Lookahead {
				cl.Lookahead = class.Prop
			}
		}
		pa, pb := netdev.ConnectClass(engines[sa], engines[sb], a, b, class, ab, ba)
		pa.SetArrivalKey(nextKey)
		pb.SetArrivalKey(nextKey + 1)
		nextKey += 2
		return pa, pb
	}

	// Servers: host h sits under ToR h/ServersPerToR on port h%ServersPerToR.
	// Hosts follow their ToR's shard, so access links are always local.
	transportCfg := &host.TransportConfig{DCTCP: cfg.DCTCP, DCQCN: cfg.DCQCN}
	total := cfg.ToRCount * cfg.ServersPerToR
	for h := 0; h < total; h++ {
		t := h / cfg.ServersPerToR
		sh := part.Host[h]
		eng := engines[sh]
		hst := host.NewShared(eng, h, fmt.Sprintf("host%d", h), transportCfg)
		hst.SetPool(cl.Pools[sh])
		hst.SetLedger(&cl.ledgers[sh].Ledger)
		hp, sp := connect(sh, part.ToR[t], hst, cl.ToRs[t], serverClass)
		hp.SetPool(cl.Pools[sh])
		hp.SetLedger(&cl.ledgers[sh].Ledger)
		hst.SetNIC(hp)
		cl.ToRs[t].AddPort(sp)
		hst.SetCompletionHandler(onCompleteFor(sh))
		cl.Hosts = append(cl.Hosts, hst)
		cl.addLink(&Link{
			Tier: TierServer, A: hp, B: sp,
			AShard: sh, BShard: part.ToR[t],
			AName: hst.Name(), BName: cl.ToRs[t].Name(),
		})
	}

	// ToR ↔ Agg, full bipartite within each pod. ToR uplink ports follow
	// the server ports; agg down ports are indexed by ToR-within-pod.
	aggsPerPod := cfg.AggCount / cfg.Pods
	torsPerPod := cfg.ToRCount / cfg.Pods
	for _, st := range cl.states {
		for t := range st.torAggUp {
			st.torAggUp[t] = make([]bool, aggsPerPod)
		}
	}
	for t, tor := range cl.ToRs {
		pod := t / torsPerPod
		for a := 0; a < aggsPerPod; a++ {
			for _, st := range cl.states {
				st.torAggUp[t][a] = true
			}
			aggIdx := pod*aggsPerPod + a
			agg := cl.Aggs[aggIdx]
			tp, ap := connect(part.ToR[t], part.Agg[aggIdx], tor, agg, torAggClass)
			tor.AddPort(tp)
			agg.AddPort(ap)
			cl.addLink(&Link{
				Tier: TierTorAgg, A: tp, B: ap,
				AShard: part.ToR[t], BShard: part.Agg[aggIdx],
				AName: tor.Name(), BName: agg.Name(),
				tor: t, aggLocal: a,
			})
		}
	}

	// Agg ↔ Core, full bipartite. Core down ports indexed by agg id.
	for _, st := range cl.states {
		for a := range st.aggCoreUp {
			st.aggCoreUp[a] = make([]bool, cfg.CoreCount)
		}
	}
	for a, agg := range cl.Aggs {
		for c := 0; c < cfg.CoreCount; c++ {
			for _, st := range cl.states {
				st.aggCoreUp[a][c] = true
			}
			ap, cp := connect(part.Agg[a], part.Core[c], agg, cl.Cores[c], aggCoreClass)
			agg.AddPort(ap)
			cl.Cores[c].AddPort(cp)
			cl.addLink(&Link{
				Tier: TierAggCore, A: ap, B: cp,
				AShard: part.Agg[a], BShard: part.Core[c],
				AName: agg.Name(), BName: cl.Cores[c].Name(),
				agg: a, core: c,
			})
		}
	}

	// SetPool/SetLedger after AddPort so every switch port (including the
	// switch side of the access links) is covered in one pass, each switch
	// using its own shard's pool and ledger.
	for i, sw := range cl.ToRs {
		sw.SetPool(cl.Pools[part.ToR[i]])
		sw.SetLedger(&cl.ledgers[part.ToR[i]].Ledger)
	}
	for i, sw := range cl.Aggs {
		sw.SetPool(cl.Pools[part.Agg[i]])
		sw.SetLedger(&cl.ledgers[part.Agg[i]].Ledger)
	}
	for i, sw := range cl.Cores {
		sw.SetPool(cl.Pools[part.Core[i]])
		sw.SetLedger(&cl.ledgers[part.Core[i]].Ledger)
	}

	cl.installRouting()
	return cl, nil
}

// addLink registers a cable in the registry, naming it after its endpoints.
func (cl *Cluster) addLink(l *Link) {
	l.Index = len(cl.links)
	l.Name = l.AName + "~" + l.BName
	l.cl = cl
	for _, st := range cl.states {
		st.linkUp = append(st.linkUp, true)
	}
	cl.links = append(cl.links, l)
}

// Links returns the cluster's cable registry in deterministic build order.
func (cl *Cluster) Links() []*Link { return cl.links }

// Inbound returns, per shard, the lanes that shard receives cross-shard
// frames on: one per ordered shard pair some cable crosses, in wiring order.
// Every list is empty on one shard.
func (cl *Cluster) Inbound() [][]*netdev.Lane { return cl.inbound }

// SetLinkState raises or cuts the carrier on link index across every shard
// replica. Single-threaded use only (one shard, or between epochs):
// under the sharded conductor each shard's injector replica calls
// SetLinkStateOn for itself instead.
func (cl *Cluster) SetLinkState(index int, up bool) {
	for s := range cl.states {
		cl.SetLinkStateOn(s, index, up)
	}
}

// SetLinkStateOn applies a carrier change to one shard's replica of the
// liveness tables, touching only the ports that shard owns — safe to call
// from that shard's goroutine mid-epoch. Idempotent per shard: repeating
// the current state is a no-op.
func (cl *Cluster) SetLinkStateOn(shard, index int, up bool) {
	l := cl.links[index]
	st := cl.states[shard]
	if st.linkUp[index] == up {
		return
	}
	st.linkUp[index] = up
	if l.AShard == shard {
		l.A.SetCarrier(up)
	}
	if l.BShard == shard {
		l.B.SetCarrier(up)
	}
	delta := 1
	if up {
		delta = -1
	}
	switch l.Tier {
	case TierTorAgg:
		st.torAggUp[l.tor][l.aggLocal] = up
		st.fabricDown += delta
	case TierAggCore:
		st.aggCoreUp[l.agg][l.core] = up
		st.fabricDown += delta
	}
}

// MustBuild is Build for tests and examples with static configs.
func MustBuild(eng *sim.Engine, cfg Config, newPolicy PolicyFactory, onComplete host.CompletionHandler) *Cluster {
	cl, err := Build(eng, cfg, newPolicy, onComplete)
	if err != nil {
		panic(err)
	}
	return cl
}

// The ECMP salts, one per routing layer ("tor", "agg", "core" in ASCII):
// installRouting's routers and PathOf hash with these, so the fluid layer's
// paths are the packet layer's.
const (
	saltToR  = 0x746f72
	saltAgg  = 0x616767
	saltCore = 0x636f7265
)

// ecmpHash spreads flows over n parallel next hops, salted so consecutive
// layers make independent choices: FNV-1a (64-bit) over the flow id and the
// salt, eight little-endian bytes each, computed inline rather than through
// hash/fnv's hash.Hash64 (TestECMPHashMatchesHashFNV holds the two equal).
func ecmpHash(f pkt.FlowID, salt uint64, n int) int {
	if n == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{uint64(f), salt} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(n))
}

// pickECMP is liveness-aware ECMP: it returns the plain hash choice when
// that next hop is eligible (the always-true case on a healthy fabric, so
// baseline path selection is bit-identical to hash-only routing), otherwise
// the first eligible index scanning deterministically from the hash. With no
// eligible choice it falls back to the hash — the packet dies at the dead
// link and transport recovery takes over.
func pickECMP(f pkt.FlowID, salt uint64, n int, eligible func(int) bool) int {
	h := ecmpHash(f, salt, n)
	if eligible(h) {
		return h
	}
	for k := 1; k < n; k++ {
		if i := (h + k) % n; eligible(i) {
			return i
		}
	}
	return h
}

// coreReaches reports whether, in shard state st, core c has a live two-hop
// path down to dstToR (some aggregation switch in the destination pod with
// both links alive).
func (cl *Cluster) coreReaches(st *shardState, c, dstToR int) bool {
	aggsPerPod := cl.Cfg.AggCount / cl.Cfg.Pods
	torsPerPod := cl.Cfg.ToRCount / cl.Cfg.Pods
	dstPod := dstToR / torsPerPod
	for a := 0; a < aggsPerPod; a++ {
		if st.aggCoreUp[dstPod*aggsPerPod+a][c] && st.torAggUp[dstToR][a] {
			return true
		}
	}
	return false
}

// installRouting programs every switch's forwarding closure. Each router has
// a fast path — when no fabric link is down it computes exactly the original
// ECMP hash, allocation-free — and a liveness-aware slow path that re-hashes
// around dead links while faults are active. Every router closes over its
// own shard's liveness replica, so routing reads never cross a shard
// boundary mid-epoch.
func (cl *Cluster) installRouting() {
	cfg := cl.Cfg
	aggsPerPod := cfg.AggCount / cfg.Pods
	torsPerPod := cfg.ToRCount / cfg.Pods
	s := cfg.ServersPerToR

	for t, tor := range cl.ToRs {
		t := t
		pod := t / torsPerPod
		st := cl.states[cl.Part.ToR[t]]
		tor.SetRouter(func(p *pkt.Packet, _ int) int {
			dstToR := p.Dst / s
			if dstToR == t {
				return p.Dst % s // local server port
			}
			if st.fabricDown == 0 {
				return s + ecmpHash(p.Flow, saltToR, aggsPerPod) // uplink
			}
			dstPod := dstToR / torsPerPod
			return s + pickECMP(p.Flow, saltToR, aggsPerPod, func(a int) bool {
				if !st.torAggUp[t][a] {
					return false
				}
				if dstPod == pod {
					// Same pod: that agg must also reach the destination rack.
					return st.torAggUp[dstToR][a]
				}
				// Cross-pod: the agg needs a live uplink to a core that can
				// still descend into the destination pod.
				agg := pod*aggsPerPod + a
				for c := 0; c < cfg.CoreCount; c++ {
					if st.aggCoreUp[agg][c] && cl.coreReaches(st, c, dstToR) {
						return true
					}
				}
				return false
			})
		})
	}

	for a, agg := range cl.Aggs {
		a := a
		pod := a / aggsPerPod
		st := cl.states[cl.Part.Agg[a]]
		agg.SetRouter(func(p *pkt.Packet, _ int) int {
			dstToR := p.Dst / s
			dstPod := dstToR / torsPerPod
			if dstPod == pod {
				return dstToR % torsPerPod // down to the rack (single path)
			}
			if st.fabricDown == 0 {
				return torsPerPod + ecmpHash(p.Flow, saltAgg, cfg.CoreCount) // up
			}
			return torsPerPod + pickECMP(p.Flow, saltAgg, cfg.CoreCount, func(c int) bool {
				return st.aggCoreUp[a][c] && cl.coreReaches(st, c, dstToR)
			})
		})
	}

	for ci, cr := range cl.Cores {
		ci := ci
		st := cl.states[cl.Part.Core[ci]]
		cr.SetRouter(func(p *pkt.Packet, _ int) int {
			dstToR := p.Dst / s
			dstPod := dstToR / torsPerPod
			// Core port layout: one port per agg, in agg-id order.
			if st.fabricDown == 0 {
				return dstPod*aggsPerPod + ecmpHash(p.Flow, saltCore, aggsPerPod)
			}
			return dstPod*aggsPerPod + pickECMP(p.Flow, saltCore, aggsPerPod, func(a int) bool {
				return st.aggCoreUp[dstPod*aggsPerPod+a][ci] && st.torAggUp[dstToR][a]
			})
		})
	}
}

// PathChoice records the healthy-fabric ECMP routing decisions for one
// flow — the same hash choices installRouting's fast path makes — so
// analytic layers (the fluid fast-forward model) can reproduce per-flow
// paths, and therefore per-link hash collisions, without forwarding a
// single packet.
type PathChoice struct {
	// Hops is 2 intra-rack, 4 intra-pod, 6 inter-pod.
	Hops           int
	SrcToR, DstToR int
	// UpAgg is the pod-local index of the aggregation switch the source ToR
	// hashes the flow onto (meaningful when Hops ≥ 4).
	UpAgg int
	// Core is the core-switch index (meaningful when Hops == 6).
	Core int
	// DownAgg is the pod-local index of the aggregation switch the flow
	// descends through in the destination pod: the core's hash choice when
	// Hops == 6, UpAgg itself when Hops == 4.
	DownAgg int
}

// PathOf returns the deterministic healthy-fabric path of flow f from src
// to dst. Matches the routers installed by installRouting whenever no
// fabric link is down.
func (c *Config) PathOf(f pkt.FlowID, src, dst int) PathChoice {
	p := PathChoice{Hops: c.Hops(src, dst), SrcToR: c.ToROf(src), DstToR: c.ToROf(dst)}
	if p.Hops == 2 {
		return p
	}
	aggsPerPod := c.AggCount / c.Pods
	p.UpAgg = ecmpHash(f, saltToR, aggsPerPod)
	p.DownAgg = p.UpAgg
	if p.Hops == 6 {
		p.Core = ecmpHash(f, saltAgg, c.CoreCount)
		p.DownAgg = ecmpHash(f, saltCore, aggsPerPod)
	}
	return p
}

// NumHosts returns the server count.
func (cl *Cluster) NumHosts() int { return len(cl.Hosts) }

// StartFlow launches f from its source host.
func (cl *Cluster) StartFlow(f *transport.Flow) { cl.Hosts[f.Src].StartFlow(f) }

// Hops returns the number of links a packet traverses from src to dst.
func (cl *Cluster) Hops(src, dst int) int { return cl.Cfg.Hops(src, dst) }

// BasePathDelay returns the empty-network latency of a single MTU packet
// from src to dst.
func (cl *Cluster) BasePathDelay(src, dst int) sim.Duration { return cl.Cfg.BasePathDelay(src, dst) }

// IdealFCT returns the empty-network completion time of a size-byte flow
// from src to dst.
func (cl *Cluster) IdealFCT(src, dst int, size int64) sim.Duration {
	return cl.Cfg.IdealFCT(src, dst, size)
}

// The path-geometry helpers live on Config — not only on a built Cluster —
// so analytic consumers (the fluid fast-forward layer, workload planners)
// can price paths without wiring switches and ports.

// ToROf returns the index of the rack switch serving host h.
func (c *Config) ToROf(h int) int { return h / c.ServersPerToR }

// Hops returns the number of links a packet traverses from src to dst
// (2 within a rack, 4 within a pod, 6 across pods).
func (c *Config) Hops(src, dst int) int {
	torsPerPod := c.ToRCount / c.Pods
	switch {
	case c.ToROf(src) == c.ToROf(dst):
		return 2
	case c.ToROf(src)/torsPerPod == c.ToROf(dst)/torsPerPod:
		return 4
	default:
		return 6
	}
}

// BasePathDelay returns the empty-network latency of a single MTU packet
// from src to dst: propagation plus store-and-forward serialization at each
// hop.
func (c *Config) BasePathDelay(src, dst int) sim.Duration {
	mtuServer := sim.TxTime(pkt.MTUBytes, c.ServerRate)
	mtuFabric := sim.TxTime(pkt.MTUBytes, c.FabricRate)
	switch c.Hops(src, dst) {
	case 2:
		return 2*c.ServerDelay + 2*mtuServer
	case 4:
		return 2*c.ServerDelay + 2*c.TorAggDelay + mtuServer + 3*mtuFabric
	default:
		return 2*c.ServerDelay + 2*c.TorAggDelay + 2*c.AggCoreDelay + mtuServer + 5*mtuFabric
	}
}

// WireBytes returns the on-the-wire size of a size-byte payload: the payload
// plus per-MTU framing overhead.
func WireBytes(size int64) int64 {
	return size + (size+int64(pkt.MTUPayload)-1)/int64(pkt.MTUPayload)*int64(pkt.HeaderBytes)
}

// IdealFCT returns the empty-network completion time of a size-byte flow
// from src to dst: pipeline the payload at the (server-link) bottleneck and
// add the base path latency of the last packet.
func (c *Config) IdealFCT(src, dst int, size int64) sim.Duration {
	return sim.TxTime(int(WireBytes(size)), c.ServerRate) + c.BasePathDelay(src, dst) - sim.TxTime(pkt.MTUBytes, c.ServerRate)
}

// LosslessGaps sums sequence gaps across all hosts (zero unless the
// lossless guarantee broke).
func (cl *Cluster) LosslessGaps() uint64 {
	var total uint64
	for _, h := range cl.Hosts {
		total += h.LosslessGaps()
	}
	return total
}

// DataReceived sums data packets delivered to receivers across all hosts —
// the fabric-wide progress signal the fault watchdog monitors.
func (cl *Cluster) DataReceived() uint64 {
	var total uint64
	for _, h := range cl.Hosts {
		total += h.DataReceived
	}
	return total
}

// ResidentBytes sums buffer occupancy across every switch: nonzero while
// packets are parked somewhere in the fabric.
func (cl *Cluster) ResidentBytes() int64 {
	var total int64
	for _, sw := range cl.AllSwitches() {
		total += sw.Occupancy()
	}
	return total
}

// DataBytes returns the three legs of the fabric-wide flow-byte
// conservation ledger, in wire bytes of data frames only: tx is what hosts
// injected (first transmissions plus retransmissions), rx what hosts'
// receivers took delivery of, and dropped what died at any kill site — the
// switches' admission-drop, lossless-violation and eviction paths plus the
// ports' carrier and fault (BER / injected-loss) drops. At any event
// boundary tx - rx - dropped >= 0 (the difference is bytes in flight);
// after a full drain the difference is exactly zero. The invariant auditor
// checks both, every sweep, so this costs O(shards + switches): hosts and
// ports write their shard's pkt.Ledger as the bytes move, and only the
// switch MMUs' kill counters are gathered here.
func (cl *Cluster) DataBytes() (tx, rx, dropped int64) {
	for i := range cl.ledgers {
		l := &cl.ledgers[i]
		tx += l.Tx
		rx += l.Rx
		dropped += l.Dropped
	}
	for _, tier := range [...][]*switchsim.Switch{cl.ToRs, cl.Aggs, cl.Cores} {
		for _, sw := range tier {
			dropped += int64(sw.DroppedDataBytes())
		}
	}
	return tx, rx, dropped
}

// RecoveryBytes sums retransmitted payload bytes across all hosts.
func (cl *Cluster) RecoveryBytes() int64 {
	var total int64
	for _, h := range cl.Hosts {
		total += h.RecoveryBytes()
	}
	return total
}

// RDMARecoveryStats sums go-back-N rewind counters across all hosts.
func (cl *Cluster) RDMARecoveryStats() (nacks, timeouts uint64) {
	for _, h := range cl.Hosts {
		n, to := h.RDMARecoveryStats()
		nacks += n
		timeouts += to
	}
	return nacks, timeouts
}

// SwitchStats aggregates stats over a slice of switches.
func SwitchStats(switches []*switchsim.Switch) switchsim.Stats {
	var agg switchsim.Stats
	for _, sw := range switches {
		st := sw.Stats()
		agg.RxPackets += st.RxPackets
		agg.TxPackets += st.TxPackets
		agg.LossyDropsIngress += st.LossyDropsIngress
		agg.LossyDropsEgress += st.LossyDropsEgress
		agg.LossyDropBytesIngress += st.LossyDropBytesIngress
		agg.LossyDropBytesEgress += st.LossyDropBytesEgress
		agg.LosslessViolationBytes += st.LosslessViolationBytes
		agg.LossyEvictions += st.LossyEvictions
		agg.LossyEvictionBytes += st.LossyEvictionBytes
		agg.LosslessHeadroom += st.LosslessHeadroom
		agg.LosslessViolations += st.LosslessViolations
		agg.ECNMarked += st.ECNMarked
		agg.PauseFramesSent += st.PauseFramesSent
		agg.ResumeFramesSent += st.ResumeFramesSent
		agg.PFCReissues += st.PFCReissues
		if st.PeakOccupancy > agg.PeakOccupancy {
			agg.PeakOccupancy = st.PeakOccupancy
		}
	}
	return agg
}

// AllSwitches returns every switch in the cluster (ToRs, aggs, cores).
func (cl *Cluster) AllSwitches() []*switchsim.Switch {
	out := make([]*switchsim.Switch, 0, len(cl.ToRs)+len(cl.Aggs)+len(cl.Cores))
	out = append(out, cl.ToRs...)
	out = append(out, cl.Aggs...)
	out = append(out, cl.Cores...)
	return out
}
