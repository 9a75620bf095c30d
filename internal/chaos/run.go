package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"l2bm/internal/exp"
	"l2bm/internal/sim"
)

// Options tunes one soak run.
type Options struct {
	// Seeds is how many scenarios to fuzz (0 = 50).
	Seeds int
	// BaseSeed offsets the seed range: scenario i uses BaseSeed + i, so a
	// soak is reproducible seed-for-seed and nightly runs can rotate
	// ranges without overlapping.
	BaseSeed int64
	// Workers bounds concurrently running scenarios (0 = GOMAXPROCS).
	Workers int
	// PointTimeout is the per-scenario wall-clock watchdog (0 = 2 min): a
	// hung or livelocked scenario is killed and reported, never wedges the
	// soak.
	PointTimeout time.Duration
	// ShrinkBudget caps candidate runs spent minimizing each finding
	// (0 = 150; negative disables shrinking).
	ShrinkBudget int
	// ReproDir, when non-empty, receives one runnable JSON reproducer per
	// finding.
	ReproDir string
	// Out, when non-nil, receives progress and finding lines.
	Out io.Writer
	// Wrap, when non-nil, intercepts every materialized spec before it
	// runs. The mutation test uses it to plant a seeded accounting bug and
	// prove the harness catches and shrinks real violations.
	Wrap func(exp.HybridSpec) exp.HybridSpec
}

func (o *Options) seeds() int { return orDefault(o.Seeds, 50) }

func (o *Options) timeout() time.Duration {
	if o.PointTimeout > 0 {
		return o.PointTimeout
	}
	return 2 * time.Minute
}

func (o *Options) budget() int {
	if o.ShrinkBudget < 0 {
		return 0
	}
	return orDefault(o.ShrinkBudget, 150)
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// Finding is one failed scenario, minimized.
type Finding struct {
	Seed int64
	// Reason is the failure as first observed (error, panic, timeout, or
	// audit violations).
	Reason string
	// Original is the generated scenario; Minimal is the smallest shrunken
	// scenario that still fails (equal to Original when shrinking is off
	// or found nothing smaller).
	Original Scenario
	Minimal  Scenario
	// MinimalReason is the failure the minimal scenario exhibits.
	MinimalReason string
	// ShrinkRuns counts candidate executions the shrinker spent.
	ShrinkRuns int
	// ReproPath is the emitted reproducer file ("" when ReproDir unset).
	ReproPath string
}

// Report summarizes a soak.
type Report struct {
	Seeds    int
	Findings []Finding
	// Events and AuditChecks aggregate over scenarios that ran to
	// completion (cost/coverage accounting).
	Events      uint64
	AuditChecks uint64
}

// Run fuzzes opts.Seeds scenarios. The returned error is non-nil only for
// infrastructure failure (context cancelled, unwritable repro dir) —
// findings are data, reported in the Report; callers decide the exit code.
func Run(ctx context.Context, opts Options) (*Report, error) {
	n := opts.seeds()
	rep := &Report{Seeds: n}

	pool := &exp.Pool{Workers: opts.Workers, KeepGoing: true, PointTimeout: opts.timeout()}
	results, _, err := pool.Run(ctx, n, func(pctx context.Context, i int) (*exp.Result, error) {
		return runScenario(pctx, Generate(opts.BaseSeed+int64(i)), opts)
	}, nil)
	for _, r := range results {
		if r != nil {
			rep.Events += r.Events
			rep.AuditChecks += r.AuditChecks
		}
	}

	var fs *exp.FailureSummary
	switch {
	case err == nil:
	case errors.As(err, &fs):
		if opts.Out != nil {
			for _, pf := range fs.Failures {
				fmt.Fprintf(opts.Out, "chaos: seed %d FAILED: %s\n", opts.BaseSeed+int64(pf.Point), firstLine(pf.Err.Error()))
			}
		}
		for _, pf := range fs.Failures {
			f, ferr := investigate(ctx, opts, opts.BaseSeed+int64(pf.Point), pf.Err)
			if ferr != nil {
				return rep, ferr
			}
			rep.Findings = append(rep.Findings, f)
		}
	default:
		return rep, err // external cancellation
	}

	if opts.Out != nil {
		fmt.Fprintf(opts.Out, "chaos: %d seeds, %d findings, %d audit sweeps, %d events\n",
			n, len(rep.Findings), rep.AuditChecks, rep.Events)
	}
	return rep, nil
}

// investigate turns one failed seed into a Finding: shrink, then emit the
// reproducer.
func investigate(ctx context.Context, opts Options, seed int64, cause error) (Finding, error) {
	sc := Generate(seed)
	f := Finding{Seed: seed, Reason: cause.Error(), Original: sc, Minimal: sc, MinimalReason: cause.Error()}
	if opts.Out != nil {
		fmt.Fprintf(opts.Out, "chaos: shrinking seed %d (budget %d)...\n", seed, opts.budget())
	}
	f.Minimal, f.MinimalReason, f.ShrinkRuns = Shrink(ctx, sc, f.Reason, opts)
	if opts.ReproDir != "" {
		path, err := WriteRepro(opts.ReproDir, f)
		if err != nil {
			return f, err
		}
		f.ReproPath = path
		if opts.Out != nil {
			fmt.Fprintf(opts.Out, "chaos: reproducer written to %s\n", path)
		}
	}
	return f, nil
}

// runScenario materializes and executes one scenario, folding invariant
// violations into the error so the pool's failure machinery (containment,
// KeepGoing inventory) applies uniformly.
func runScenario(ctx context.Context, sc Scenario, opts Options) (*exp.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec := sc.Spec()
	if opts.Wrap != nil {
		spec = opts.Wrap(spec)
	}
	res, err := exp.RunHybridCtx(ctx, spec)
	if err != nil {
		return nil, err
	}
	if len(res.AuditErrors) > 0 {
		return nil, fmt.Errorf("invariant violations: %s", strings.Join(res.AuditErrors, "; "))
	}
	return res, nil
}

// failReason re-runs a scenario under containment and reports why it fails
// ("" = passes). External cancellation reads as passing so the shrinker
// stops cleanly instead of chasing phantom failures.
func failReason(ctx context.Context, sc Scenario, opts Options) string {
	p := &exp.Pool{Workers: 1, KeepGoing: true, PointTimeout: opts.timeout()}
	_, _, err := p.Run(ctx, 1, func(pctx context.Context, _ int) (*exp.Result, error) {
		return runScenario(pctx, sc, opts)
	}, nil)
	if err == nil || ctx.Err() != nil {
		return ""
	}
	return err.Error()
}

// Shrink greedily minimizes a failing scenario: it tries candidate
// simplifications (drop faults, drop traffic classes, shrink the fabric,
// shorten the schedule) and keeps any candidate that still fails,
// restarting from the simpler scenario until no transform applies or the
// budget is spent. Returns the minimal scenario, its failure reason, and
// how many candidate runs were used.
func Shrink(ctx context.Context, sc Scenario, reason string, opts Options) (Scenario, string, int) {
	cur, curReason := sc, reason
	runs, budget := 0, opts.budget()
	for improved := true; improved && runs < budget; {
		improved = false
		for _, cand := range shrinkCandidates(cur) {
			if runs >= budget || ctx.Err() != nil {
				return cur, curReason, runs
			}
			runs++
			if r := failReason(ctx, cand, opts); r != "" {
				cur, curReason, improved = cand, r, true
				break // restart from the simpler scenario
			}
		}
	}
	return cur, curReason, runs
}

// shrinkCandidates orders simplifications most-aggressive first, so the
// greedy loop takes big steps when it can. Scenario is comparable (plain
// scalars), so no-op transforms are filtered by equality.
func shrinkCandidates(sc Scenario) []Scenario {
	var cands []Scenario
	add := func(f func(*Scenario)) {
		c := sc
		f(&c)
		if c != sc && c.Validate() == nil {
			cands = append(cands, c)
		}
	}

	// Whole subsystems first.
	add(func(c *Scenario) {
		c.FlapRate = 0
		c.FlapDowntime = 0
		c.BER = 0
		c.PFCLossRate = 0
		c.BlackoutAt = 0
		c.BlackoutLen = 0
		c.BlackoutTor = false
	})
	add(func(c *Scenario) { c.IncastFanout = 0; c.IncastBytes = 0; c.IncastRate = 0 })
	add(func(c *Scenario) {
		if c.RDMALoad > 0 || c.IncastFanout > 0 {
			c.TCPLoad = 0
		}
	})
	add(func(c *Scenario) {
		if c.TCPLoad > 0 || c.IncastFanout > 0 {
			c.RDMALoad = 0
		}
	})
	add(func(c *Scenario) { c.Shards = 0 })

	// Fabric collapse.
	add(func(c *Scenario) {
		c.Pods, c.CoreCount, c.AggCount, c.ToRCount = 1, 1, 1, 1
		c.Shards, c.InterRackOnly = 0, false
	})
	add(func(c *Scenario) { c.ServersPerToR = 2 })
	add(func(c *Scenario) { c.CoreCount = 1 })

	// Schedule.
	add(func(c *Scenario) {
		if c.Window >= 400*sim.Microsecond {
			c.Window /= 2
			c.Drain /= 2
			c.AuditEvery = c.Window / 8
			if c.MaxPauseAge > 0 {
				c.MaxPauseAge = c.Window + c.Drain/2
			}
			if c.BlackoutAt > c.Window {
				c.BlackoutAt = c.Window / 2
			}
			if c.BlackoutLen > c.Window/2 {
				c.BlackoutLen = c.Window / 2
			}
		}
	})
	add(func(c *Scenario) {
		if c.Drain > 4*c.Window {
			c.Drain = 4 * c.Window
			if c.MaxPauseAge > 0 {
				c.MaxPauseAge = c.Window + c.Drain/2
			}
		}
	})

	// Individual fault mechanisms.
	add(func(c *Scenario) { c.FlapRate = 0; c.FlapDowntime = 0 })
	add(func(c *Scenario) { c.BER = 0 })
	add(func(c *Scenario) { c.PFCLossRate = 0 })
	add(func(c *Scenario) { c.BlackoutAt = 0; c.BlackoutLen = 0; c.BlackoutTor = false })

	// Intensity halving.
	add(func(c *Scenario) {
		if c.RDMALoad > 0.1 {
			c.RDMALoad /= 2
		}
	})
	add(func(c *Scenario) {
		if c.TCPLoad > 0.1 {
			c.TCPLoad /= 2
		}
	})
	add(func(c *Scenario) {
		if c.IncastFanout > 2 {
			c.IncastFanout = 2
		}
	})
	add(func(c *Scenario) {
		if c.IncastBytes > 40_000 {
			c.IncastBytes /= 2
		}
	})
	return cands
}

// Repro is the on-disk reproducer: the minimal scenario is runnable as-is,
// and the original is kept for context.
type Repro struct {
	Version    int
	Seed       int64
	Reason     string
	Minimal    Scenario
	Original   Scenario
	ShrinkRuns int
}

// ReproVersion gates repro-file compatibility.
const ReproVersion = 1

// WriteRepro emits one finding as a runnable JSON reproducer and returns
// its path.
func WriteRepro(dir string, f Finding) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: repro dir: %w", err)
	}
	r := Repro{
		Version: ReproVersion, Seed: f.Seed, Reason: f.MinimalReason,
		Minimal: f.Minimal, Original: f.Original, ShrinkRuns: f.ShrinkRuns,
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaos: repro: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed%d.json", f.Seed))
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("chaos: repro: %w", err)
	}
	return path, nil
}

// LoadRepro parses a reproducer file.
func LoadRepro(path string) (Repro, error) {
	var r Repro
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("chaos: %w", err)
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("chaos: repro %s: %w", path, err)
	}
	if r.Version != ReproVersion {
		return r, fmt.Errorf("chaos: repro %s has version %d, this build reads %d", path, r.Version, ReproVersion)
	}
	return r, nil
}

// Replay re-runs a reproducer's minimal scenario and reports whether the
// failure still reproduces ("" = it passed, i.e. the bug is fixed).
func Replay(ctx context.Context, path string, opts Options) (string, error) {
	r, err := LoadRepro(path)
	if err != nil {
		return "", err
	}
	if err := r.Minimal.Validate(); err != nil {
		return "", err
	}
	reason := failReason(ctx, r.Minimal, opts)
	if opts.Out != nil {
		if reason == "" {
			fmt.Fprintf(opts.Out, "chaos: seed %d no longer reproduces\n", r.Seed)
		} else {
			fmt.Fprintf(opts.Out, "chaos: seed %d reproduces: %s\n", r.Seed, firstLine(reason))
		}
	}
	return reason, ctx.Err()
}

// firstLine truncates multi-line failure text (panic stacks) for progress
// output; the full text lives in the repro file.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
