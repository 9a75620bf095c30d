package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"

	"l2bm/internal/chaos"
	"l2bm/internal/exp"
)

// parseScale maps the CLI flag to an exp.Scale.
func parseScale(s string) (exp.Scale, error) { return exp.ParseScale(s) }

// experimentOrder is the paper-figure run order (-exp all) and the
// vocabulary upfront flag validation checks against. The chaos soak and
// the hyperscale scale smoke are deliberately not part of "all": they are
// engineering harnesses, not paper artifacts (and "scale" at -scale full
// builds a 100k-host fabric).
var experimentOrder = []string{"fig3a", "fig3b", "fig7", "table2", "fig8", "fig9", "fig10", "fig11", "faults", "arena"}

// extraExperiments are runnable by name but excluded from -exp all.
var extraExperiments = []string{"scale"}

// runChaos executes the -exp chaos soak (or, with -replay, re-runs a saved
// reproducer). Findings are a nonzero exit: the soak is a CI gate.
func runChaos(opts Options, w io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	copts := chaos.Options{
		Seeds:        opts.Seeds,
		BaseSeed:     opts.BaseSeed,
		Workers:      opts.Workers,
		PointTimeout: opts.PointTimeout,
		ReproDir:     opts.ReproDir,
		Out:          w,
	}
	if opts.Replay != "" {
		reason, err := chaos.Replay(ctx, opts.Replay, copts)
		if err != nil {
			return err
		}
		if reason != "" {
			return fmt.Errorf("reproducer %s still fails", opts.Replay)
		}
		return nil
	}
	rep, err := chaos.Run(ctx, copts)
	if err != nil {
		return err
	}
	if n := len(rep.Findings); n > 0 {
		return fmt.Errorf("chaos soak found %d failing scenario(s) out of %d seeds", n, rep.Seeds)
	}
	return nil
}

// runSpec executes a sweep-request JSON file (the l2bmd wire format) and
// writes the canonical result envelope to w — the same bytes the daemon
// serves for the same request, which is exactly what the tests diff. With
// opts.Resume the points come from and go to that result cache, like the
// daemon's. A point that overruns opts.PointTimeout (0 = unbounded) fails
// the sweep with a *exp.PointTimeoutError.
func runSpec(path string, opts Options, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req, err := exp.ParseSweepRequest(data)
	if err != nil {
		return err
	}
	var cache *exp.ResultCache // nil without -resume: every point simply runs
	if opts.Resume != "" {
		if cache, err = exp.NewResultCache(opts.Resume); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	pool := &exp.Pool{Workers: opts.Workers, PointTimeout: opts.PointTimeout}
	results, _, err := pool.Run(ctx, len(req.Specs), func(ctx context.Context, i int) (*exp.Result, error) {
		res, _, err := cache.GetOrRun(ctx, req.Specs[i])
		return res, err
	}, nil)
	if err != nil {
		return err
	}
	out, err := exp.MarshalResults(results)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// experimentRunners maps experiment names to their runners, all sharing
// one harness (worker pool, point store, aggregate event accounting).
func experimentRunners(opts Options) (*exp.Harness, map[string]func(exp.Scale, io.Writer) error) {
	h := exp.NewHarness(opts.Workers)
	return h, map[string]func(exp.Scale, io.Writer) error{
		"fig3a": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig3a(s, w)
			return err
		},
		"fig3b": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig3b(s, w)
			return err
		},
		"fig7": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig7(s, w)
			return err
		},
		"table2": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunTable2(s, w)
			return err
		},
		"fig8": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig8(s, w)
			return err
		},
		"fig9": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig9(s, w)
			return err
		},
		"fig10": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig10(s, w)
			return err
		},
		"fig11": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFig11(s, w)
			return err
		},
		"faults": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunFaultTolerance(s, w)
			return err
		},
		"arena": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunArena(s, opts.Policies, w)
			return err
		},
		"scale": func(s exp.Scale, w io.Writer) error {
			_, err := h.RunScale(s, w)
			return err
		},
	}
}
