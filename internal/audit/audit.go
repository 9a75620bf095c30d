// Package audit is the global invariant auditor: a periodic, observer-free
// sweep of conservation laws the whole fabric must obey at every event
// boundary, run while the simulation is in flight rather than only at the
// end. The per-switch MMU consistency checks (switchsim.CheckInvariants)
// catch local accounting bugs; the auditor composes them with the global
// laws no single switch can see:
//
//   - buffer-byte conservation per switch: the per-queue occupancy sums
//     must match the MMU's pool totals (delegated to CheckInvariants),
//     and the shared pool must stay within its configured capacity
//     (plus one in-flight MTU of admission slack);
//   - non-negative occupancy and threshold bounds (CheckInvariants);
//   - PFC pause/resume pairing: every XOFF must eventually be matched by
//     an XON — a transmit pause older than MaxPauseAge is flagged, and
//     after a full drain no pause may remain at all;
//   - flow-byte conservation: data bytes injected by hosts equal bytes
//     delivered plus bytes dropped at any kill site plus bytes in flight
//     (in-flight is never negative mid-run, and exactly zero after a
//     drained run);
//   - pool accounting: no packet pool's outstanding count may go negative,
//     and in debug mode the live-map census must equal the counter-derived
//     Live() exactly.
//
// Observer-freedom is a hard contract: a sweep only reads state — it draws
// from no RNG stream, schedules nothing that runs simulation code, and
// mutates nothing outside the auditor itself — so an auditor-on run
// produces byte-identical results and trace files to an auditor-off run
// (enforced by test in internal/exp). The sweep runs as a psim barrier task,
// when all shard clocks agree and every cross-shard lane is drained — the
// only instant a global read is coherent — never as one engine's event.
//
// A sweep costs what changed since the last one, not what is provisioned.
// The per-switch checks are pure functions of the switch's MMU state and
// its immutable configuration, and every write to that state moves
// Switch.MMUVersion; the auditor remembers the version at which each switch
// last passed and skips a switch that still shows it — the verdict cannot
// differ. The memo lives in the auditor, so the sweep stays a pure read of
// the fabric, and only a PASS is memoised: a switch that failed is
// re-checked (and re-reported) every sweep until it is clean, exactly as an
// ungated auditor would. Final re-checks every switch regardless, and the
// pause-age, flow-byte and pool checks are never gated.
package audit

import (
	"fmt"

	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/topo"
)

// Config tunes the auditor. The zero value is usable: a 500 µs sweep
// period, pause-age checking off, and up to 64 retained violations.
type Config struct {
	// Every is the sweep period (0 = 500 µs).
	Every sim.Duration
	// MaxPauseAge, when positive, flags any transmit-pause interval that
	// has lasted longer than this without a matching resume. Enable it only
	// on scenarios that cannot legitimately wedge a pause (no PFC-frame
	// loss, no carrier cuts): a lost XON is a modeled fault, not a
	// simulator bug, and is checked at drain time instead.
	MaxPauseAge sim.Duration
	// AllowLeakedPause skips the after-drain no-pause-left check — set it
	// when the fault plan destroys PFC frames or cuts carriers, either of
	// which can legitimately strand a pause with no XON to clear it.
	AllowLeakedPause bool
	// Limit caps the retained violation strings (0 = 64); the total count
	// keeps climbing past it.
	Limit int
}

// Auditor sweeps one built cluster. Build with New, wire CheckOnce as a psim
// barrier task every Every(), and call Final after the run for the
// drain-time checks.
type Auditor struct {
	cfg Config
	cl  *topo.Cluster

	// switches is cl.AllSwitches(), fixed at New. cleanAt[i] is
	// switches[i].MMUVersion()+1 as of its last clean check, 0 when the
	// switch has not been checked yet or failed its last check.
	switches []*switchsim.Switch
	cleanAt  []uint64

	violations []string
	total      uint64
	checks     uint64
}

// New builds an auditor over cl, applying Config defaults.
func New(cl *topo.Cluster, cfg Config) *Auditor {
	if cfg.Every <= 0 {
		cfg.Every = 500 * sim.Microsecond
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 64
	}
	switches := cl.AllSwitches()
	return &Auditor{cfg: cfg, cl: cl, switches: switches, cleanAt: make([]uint64, len(switches))}
}

// Every returns the effective sweep period.
func (a *Auditor) Every() sim.Duration { return a.cfg.Every }

// CheckOnce runs one sweep at the given instant. Pure reads of the fabric
// only; a switch whose MMU has not been written since it last passed is not
// re-checked.
func (a *Auditor) CheckOnce(now sim.Time) { a.sweep(now, false) }

// sweep is one pass over every check; recheck ignores the clean-version
// memo.
func (a *Auditor) sweep(now sim.Time, recheck bool) {
	a.checks++

	for i, sw := range a.switches {
		version := sw.MMUVersion() + 1
		if a.cleanAt[i] == version && !recheck {
			continue
		}
		if a.checkSwitch(now, sw) {
			a.cleanAt[i] = version
		} else {
			a.cleanAt[i] = 0
		}
	}

	// PFC pause/resume pairing, transmitter view: a pause older than
	// MaxPauseAge means an XOFF whose matching XON never came.
	if a.cfg.MaxPauseAge > 0 {
		a.checkPauseAges(now, a.cfg.MaxPauseAge)
	}

	// Flow-byte conservation: in-flight bytes can never be negative.
	if tx, rx, dropped := a.cl.DataBytes(); tx-rx-dropped < 0 {
		a.record(now, "flow-byte ledger negative: injected=%d delivered=%d dropped=%d (in-flight %d)",
			tx, rx, dropped, tx-rx-dropped)
	}

	// Pool accounting. Barrier tasks run with every cross-shard lane
	// drained, so at a sweep instant every live packet is owned by exactly
	// one pool.
	for shard, pl := range a.cl.Pools {
		if pl == nil {
			continue
		}
		live := pl.Live()
		if live < 0 {
			a.record(now, "pool[%d]: Live()=%d < 0 (more returns than checkouts)", shard, live)
		}
		if pl.Debug() {
			if tracked := int64(len(pl.Leaked())); tracked != live {
				a.record(now, "pool[%d]: live map tracks %d packets but counters say %d",
					shard, tracked, live)
			}
		}
	}
}

// checkSwitch runs the per-switch checks — MMU consistency plus the
// shared-pool capacity bound — and reports whether the switch passed both.
// The one-MTU slack is admission granularity: a single in-flight admission
// may carry the pool past B by at most one wire MTU before thresholds (all
// of the α·(B−Q) family) collapse to zero.
func (a *Auditor) checkSwitch(now sim.Time, sw *switchsim.Switch) bool {
	clean := true
	if err := sw.CheckInvariants(); err != nil {
		a.record(now, "%v", err)
		clean = false
	}
	if used, total := sw.SharedUsed(), sw.TotalShared(); used > total+pkt.MTUBytes {
		a.record(now, "switch %s: sharedUsed=%d exceeds TotalShared=%d (+1 MTU slack)",
			sw.Name(), used, total)
		clean = false
	}
	return clean
}

// checkPauseAges scans every transmit direction in the fabric — switch
// ports and host NICs — for pauses older than maxAge.
func (a *Auditor) checkPauseAges(now sim.Time, maxAge sim.Duration) {
	check := func(p *netdev.Port) {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			if p.Paused(prio) && now-p.PausedSince(prio) >= sim.Time(maxAge) {
				a.record(now, "%v prio %d paused since %v with no resume (max pause age %v)",
					p, prio, p.PausedSince(prio), maxAge)
			}
		}
	}
	for _, sw := range a.switches {
		for i := 0; i < sw.NumPorts(); i++ {
			check(sw.Port(i))
		}
	}
	for _, h := range a.cl.Hosts {
		check(h.NIC())
	}
}

// Final runs the drain-time checks once the run has ended, at now: one last
// sweep that re-checks every switch whatever its version, and — when every
// packet pool reads fully returned, i.e. nothing is in flight anywhere — exact
// conservation: the flow-byte ledger must balance to zero, every switch must
// be quiescent (CheckDrained), and no PFC pause may remain asserted (unless
// the fault plan can legitimately strand one, see Config.AllowLeakedPause).
func (a *Auditor) Final(now sim.Time) {
	a.sweep(now, true)

	drained := true
	for _, pl := range a.cl.Pools {
		if pl == nil || pl.Live() != 0 {
			drained = false // pooling off, or frames still parked/in flight
		}
	}
	if !drained {
		return
	}
	if tx, rx, dropped := a.cl.DataBytes(); tx-rx-dropped != 0 {
		a.record(now, "flow-byte ledger unbalanced after drain: injected=%d delivered=%d dropped=%d (in-flight %d, want 0)",
			tx, rx, dropped, tx-rx-dropped)
	}
	for _, sw := range a.switches {
		if err := sw.CheckDrained(); err != nil {
			a.record(now, "after drain: %v", err)
		}
	}
	if !a.cfg.AllowLeakedPause {
		a.checkPauseAges(now, 0) // any surviving pause is a leak now
	}
}

// record appends one violation, keeping at most cfg.Limit strings.
func (a *Auditor) record(now sim.Time, format string, args ...any) {
	a.total++
	if len(a.violations) < a.cfg.Limit {
		msg := fmt.Sprintf(format, args...)
		a.violations = append(a.violations, fmt.Sprintf("audit t=%v: %s", now, msg))
	}
}

// Violations returns the retained violation strings (empty on a clean run).
func (a *Auditor) Violations() []string { return a.violations }

// Total returns the total violation count, including those past the
// retention limit.
func (a *Auditor) Total() uint64 { return a.total }

// Checks returns how many sweeps ran (Final's last sweep included).
func (a *Auditor) Checks() uint64 { return a.checks }
