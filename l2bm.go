// Package l2bm is a packet-level reproduction of "L2BM: Switch Buffer
// Management for Hybrid Traffic in Data Center Networks" (ICDCS 2023): a
// deterministic discrete-event simulator of an RDMA/TCP datacenter fabric —
// shared-memory switches with ingress/egress-pool MMUs, PFC, ECN, DCQCN and
// DCTCP transports, a three-layer Clos topology — together with the paper's
// buffer-management policies (L2BM, DT, DT2, ABM) and the full evaluation
// harness for its figures and tables.
//
// This root package is the public facade. Quick start:
//
//	eng := l2bm.NewEngine(42)
//	cluster := l2bm.MustBuildCluster(eng, l2bm.TinyClusterConfig(),
//		func() l2bm.Policy { return l2bm.NewL2BMPolicy() }, nil)
//	cluster.StartFlow(&l2bm.Flow{ID: 1, Src: 0, Dst: 5, Size: 1 << 20,
//		Priority: l2bm.PrioLossless, Class: l2bm.ClassLossless})
//	eng.RunAll()
//
// or run a whole paper experiment:
//
//	res, err := l2bm.RunHybrid(l2bm.HybridSpec{
//		Name: "demo", Policy: "L2BM", Scale: l2bm.ScaleSmall,
//		RDMALoad: 0.4, TCPLoad: 0.8,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for paper-vs-
// measured results.
package l2bm

import (
	"l2bm/internal/core"
	"l2bm/internal/exp"
	"l2bm/internal/faults"
	"l2bm/internal/host"
	"l2bm/internal/metrics"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

// --- Simulation engine ------------------------------------------------------

// Engine is the deterministic discrete-event scheduler driving a simulation.
type Engine = sim.Engine

// Time is a simulated instant in integer picoseconds.
type Time = sim.Time

// Duration is a span of simulated time in picoseconds.
type Duration = sim.Duration

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns an engine seeded for reproducible runs.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// TxTime returns the serialization delay of size bytes at rateBps.
func TxTime(sizeBytes int, rateBps int64) Duration { return sim.TxTime(sizeBytes, rateBps) }

// --- Traffic classes and flows ----------------------------------------------

// Class is a switch loss class (lossless RDMA, lossy TCP, control).
type Class = pkt.Class

// Loss classes.
const (
	ClassLossless = pkt.ClassLossless
	ClassLossy    = pkt.ClassLossy
)

// Default 802.1p priority assignments.
const (
	PrioLossless = pkt.PrioLossless
	PrioLossy    = pkt.PrioLossy
)

// Packet is one simulated frame; Policy hooks observe admitted packets.
type Packet = pkt.Packet

// Flow describes one application transfer; Class selects the transport
// (lossless → DCQCN RDMA, lossy → DCTCP).
type Flow = transport.Flow

// FlowID uniquely identifies a flow.
type FlowID = pkt.FlowID

// --- Buffer-management policies (the paper's subject) ------------------------

// Policy is a buffer-management scheme: it computes the ingress (PFC) and
// egress thresholds the switch MMU enforces. Implement it to plug a custom
// scheme into the simulator.
type Policy = core.Policy

// StateView is the read-only MMU state a Policy consults.
type StateView = core.StateView

// L2BMConfig parameterizes the L2BM policy.
type L2BMConfig = core.L2BMConfig

// Normalization selects L2BM's weight-normalization constant C.
type Normalization = core.Normalization

// WeightBounds clamps L2BM's adaptive weight for one traffic class.
type WeightBounds = core.WeightBounds

// Normalization choices (see core.Normalization docs).
const (
	NormSumTau  = core.NormSumTau
	NormMeanTau = core.NormMeanTau
	NormMaxTau  = core.NormMaxTau
	NormCount   = core.NormCount
)

// NewDTPolicy returns classic Dynamic Threshold with the paper's α = 0.125.
func NewDTPolicy() Policy { return core.NewDT() }

// NewDT2Policy returns DT with α = 0.5 (the paper's DT2 baseline).
func NewDT2Policy() Policy { return core.NewDT2() }

// NewDTPolicyAlpha returns DT with a custom ingress α.
func NewDTPolicyAlpha(alpha float64) Policy { return core.NewDTAlpha(alpha) }

// NewABMPolicy returns the ABM (SIGCOMM'22) baseline.
func NewABMPolicy() Policy { return core.NewABM() }

// NewEDTPolicy returns the EDT (INFOCOM'15) micro-burst-absorbing DT
// variant, one of the related-work schemes the paper surveys.
func NewEDTPolicy() Policy { return core.NewEDT() }

// NewTDTPolicy returns the TDT (ToN'22) traffic-aware DT variant.
func NewTDTPolicy() Policy { return core.NewTDT() }

// NewL2BMPolicy returns L2BM with the evaluation defaults.
func NewL2BMPolicy() Policy { return core.NewDefaultL2BM() }

// NewL2BMPolicyWith returns L2BM with a custom configuration.
func NewL2BMPolicyWith(cfg L2BMConfig) Policy { return core.NewL2BM(cfg) }

// DefaultL2BMConfig returns the evaluation defaults for L2BM.
func DefaultL2BMConfig() L2BMConfig { return core.DefaultL2BMConfig() }

// --- Switches and topology ---------------------------------------------------

// SwitchConfig sizes a shared-memory switch MMU (buffer, headroom, ECN, PFC).
type SwitchConfig = switchsim.Config

// DefaultSwitchConfig returns the paper's 4 MB shallow-buffer switch.
func DefaultSwitchConfig() SwitchConfig { return switchsim.DefaultConfig() }

// ClusterConfig describes the Clos fabric to build.
type ClusterConfig = topo.Config

// Cluster is a built network of hosts and switches.
type Cluster = topo.Cluster

// PolicyFactory creates one Policy instance per switch.
type PolicyFactory = topo.PolicyFactory

// CompletionHandler observes flow completions (receiver side).
type CompletionHandler = host.CompletionHandler

// DefaultClusterConfig returns the paper's topology: 2 core + 4 agg + 4 ToR
// switches, 128 servers, 25/100 Gbps links.
func DefaultClusterConfig() ClusterConfig { return topo.DefaultConfig() }

// TinyClusterConfig returns a scaled-down 8-server fabric for quick runs.
func TinyClusterConfig() ClusterConfig { return topo.TinyConfig() }

// BuildCluster wires a cluster; onComplete (may be nil) observes every flow
// completion.
func BuildCluster(eng *Engine, cfg ClusterConfig, newPolicy PolicyFactory, onComplete CompletionHandler) (*Cluster, error) {
	return topo.Build(eng, cfg, newPolicy, onComplete)
}

// MustBuildCluster is BuildCluster for static configurations.
func MustBuildCluster(eng *Engine, cfg ClusterConfig, newPolicy PolicyFactory, onComplete CompletionHandler) *Cluster {
	return topo.MustBuild(eng, cfg, newPolicy, onComplete)
}

// --- Workloads ---------------------------------------------------------------

// CDF is a flow-size distribution.
type CDF = workload.CDF

// WebSearchCDF returns the heavy-tailed web-search flow-size distribution
// the paper's workload draws from.
func WebSearchCDF() *CDF { return workload.WebSearchCDF() }

// DataMiningCDF returns the even heavier-tailed VL2 data-mining
// distribution, for experiments beyond the paper's setup.
func DataMiningCDF() *CDF { return workload.DataMiningCDF() }

// PoissonConfig describes an all-to-all Poisson traffic class.
type PoissonConfig = workload.PoissonConfig

// IncastConfig describes the fan-in query workload.
type IncastConfig = workload.IncastConfig

// NewPoisson builds a Poisson generator feeding sink (a Cluster works).
func NewPoisson(eng *Engine, sink workload.Sink, cfg PoissonConfig) (*workload.Poisson, error) {
	return workload.NewPoisson(eng, sink, cfg)
}

// NewIncast builds an incast query generator.
func NewIncast(eng *Engine, sink workload.Sink, cfg IncastConfig) (*workload.Incast, error) {
	return workload.NewIncast(eng, sink, cfg)
}

// --- Metrics -----------------------------------------------------------------

// FCTRecorder matches flow starts and completions and derives slowdowns.
type FCTRecorder = metrics.FCTRecorder

// NewFCTRecorder returns an empty recorder.
func NewFCTRecorder() *FCTRecorder { return metrics.NewFCTRecorder() }

// Percentile returns the p-th percentile (0–100) of xs (linear
// interpolation between the two closest order statistics).
func Percentile(xs []float64, p float64) float64 { return metrics.Percentile(xs, p) }

// PercentileSorted is Percentile over an already ascending-sorted sample
// set, skipping the defensive copy-and-sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	return metrics.PercentileSorted(sorted, p)
}

// Summarize condenses samples into mean/std/min/quartiles/max.
func Summarize(xs []float64) metrics.Summary { return metrics.Summarize(xs) }

// --- Experiment harness ------------------------------------------------------

// Scale selects simulation size: ScaleTiny, ScaleSmall or ScaleFull.
type Scale = exp.Scale

// Scales.
const (
	ScaleTiny  = exp.ScaleTiny
	ScaleSmall = exp.ScaleSmall
	ScaleFull  = exp.ScaleFull
)

// HybridSpec describes one hybrid-traffic data point.
type HybridSpec = exp.HybridSpec

// IncastSpec configures the incast query stream of a HybridSpec.
type IncastSpec = exp.IncastSpec

// Result carries everything a figure/table needs from one run.
type Result = exp.Result

// RunHybrid executes one hybrid-traffic data point.
func RunHybrid(spec HybridSpec) (*Result, error) { return exp.RunHybrid(spec) }

// Harness executes experiments by name — Run("fig7", scale, nil, w), any row
// of the evaluation, the faults ablation and the policy arena included —
// over a bounded worker pool: independent grid points fan out across cores
// while results are collated in spec order, so rendered artifacts are
// byte-identical for any worker count. See exp.Harness.
type Harness = exp.Harness

// NewHarness returns an experiment harness bounded to the given worker
// count (<= 0 means GOMAXPROCS, 1 is strictly sequential).
func NewHarness(workers int) *Harness { return exp.NewHarness(workers) }

// --- Fault injection ---------------------------------------------------------

// FaultPlan describes a deterministic fault schedule: link flaps, frame
// corruption, lost PFC frames and switch blackouts.
type FaultPlan = faults.Plan

// Blackout takes a whole switch offline for a fixed interval.
type Blackout = faults.Blackout

// FaultSpec attaches a fault plan plus detection machinery to a HybridSpec.
type FaultSpec = exp.FaultSpec

// DefaultFaultScenario returns the robustness ablation's default plan: ~1%
// link-flap duty cycle plus BER 1e-6 frame corruption during the traffic
// window.
func DefaultFaultScenario(scale Scale) *FaultSpec { return exp.DefaultFaultScenario(scale) }

// FrameCorruptionProb converts a bit-error rate into a per-frame corruption
// probability for a frame of sizeBytes.
func FrameCorruptionProb(sizeBytes int, ber float64) float64 {
	return faults.FrameCorruptionProb(sizeBytes, ber)
}
