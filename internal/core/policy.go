// Package core implements the paper's contribution: buffer-management
// policies for the shared-memory switch MMU, chiefly L2BM — an ingress-pool
// PFC-threshold policy that weights the classic Dynamic Threshold control
// factor by the inverse of each ingress queue's average packet sojourn time
// (ICDCS'23, §III). The package also implements the evaluation baselines:
// classic DT (Choudhury–Hahne), DT2 (DT with α = 0.5) and ABM (SIGCOMM'22)
// adapted to the hybrid lossless/lossy setting.
//
// Policies are pure decision logic: they read MMU state through the
// StateView interface and return byte thresholds. The MMU (package
// switchsim) owns the counters and calls the policy on every admission
// decision and on every enqueue/dequeue so stateful policies (L2BM's sojourn
// module) can track packet residency.
package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// StateView is the read-only window a buffer-management policy gets into the
// switch MMU. All byte quantities refer to the shared service pool; the
// static reserved buffer and PFC headroom are accounted separately by the
// MMU and are invisible to policies, exactly as in the paper's model (§II-A).
type StateView interface {
	// Now returns the current simulated time.
	Now() sim.Time
	// TotalShared returns B, the size of the shared service pool in bytes.
	TotalShared() int64
	// SharedUsed returns Q(t), the bytes of shared pool currently occupied
	// across all queues and classes.
	SharedUsed() int64
	// EgressPoolUsed returns the occupancy of the egress accounting pool
	// for the given class (the paper keeps independent lossless and lossy
	// egress pools).
	EgressPoolUsed(class pkt.Class) int64
	// EgressQueueBytes returns the egress-pool counter Q_out for
	// (port, priority).
	EgressQueueBytes(port, prio int) int64
	// EgressDrainRate returns the estimated service rate μ (bits/s) that
	// priority prio currently receives at egress port.
	EgressDrainRate(port, prio int) int64
	// EgressLineRate returns the full line rate (bits/s) of egress port.
	EgressLineRate(port int) int64
	// EgressPausedTime returns the cumulative time the egress (port,
	// priority) has spent paused by downstream PFC, used by L2BM's §III-D
	// pause-exclusion.
	EgressPausedTime(port, prio int) sim.Duration
	// EgressPausedFor returns how long the egress (port, priority) has been
	// continuously paused as of now, or 0 when it is not paused. The sojourn
	// module uses it to estimate the remaining pause of a paused egress
	// queue (whose EgressDrainRate is 0).
	EgressPausedFor(port, prio int) sim.Duration
	// NumPorts returns the switch's port count.
	NumPorts() int
	// CongestedEgressQueues returns how many egress queues of priority
	// prio are currently congested (backlog above one MTU), as consumed by
	// ABM's per-priority fair share.
	CongestedEgressQueues(prio int) int
}

// Policy computes the two admission thresholds the MMU enforces: the ingress
// (PFC / ingress-drop) threshold and the egress queue threshold. Stateful
// policies additionally observe the lifecycle of admitted packets.
type Policy interface {
	// Name identifies the policy in experiment output ("L2BM", "DT", ...).
	Name() string
	// IngressThreshold returns the byte threshold for ingress (port,
	// priority): crossing it triggers PFC for lossless traffic and drops
	// for lossy traffic (paper Eq. 1 / Eq. 3).
	IngressThreshold(s StateView, port, prio int) int64
	// EgressThreshold returns the byte threshold for the egress queue
	// (port, priority); packets beyond it are dropped (lossy) or refused
	// (lossless, backpressured via the ingress side).
	EgressThreshold(s StateView, port, prio int) int64
	// OnEnqueue observes a packet admitted into shared memory. The MMU has
	// already stamped p.InPort, p.InPrio and p.OutPort.
	OnEnqueue(s StateView, p *pkt.Packet)
	// OnDequeue observes a packet leaving shared memory (fully serialized
	// onto its egress link).
	OnDequeue(s StateView, p *pkt.Packet)
}

// Compile-time interface checks for all shipped policies.
var (
	_ Policy = (*DT)(nil)
	_ Policy = (*ABM)(nil)
	_ Policy = (*L2BM)(nil)
	_ Policy = (*FB)(nil)
	_ Policy = (*BShare)(nil)
	_ Policy = (*Occamy)(nil)
	_ Policy = (*EDT)(nil)
	_ Policy = (*TDT)(nil)

	_ PreemptivePolicy = (*Occamy)(nil)
)
