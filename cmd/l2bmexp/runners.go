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

// runChaos executes the -exp chaos soak (or, with replay set, re-runs that
// saved reproducer). Findings are a nonzero exit: the soak is a CI gate.
func runChaos(opts chaos.Options, replay string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if replay != "" {
		reason, err := chaos.Replay(ctx, replay, opts)
		if err != nil {
			return err
		}
		if reason != "" {
			return fmt.Errorf("reproducer %s still fails", replay)
		}
		return nil
	}
	rep, err := chaos.Run(ctx, opts)
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
// serves for the same request, which is exactly what the tests diff. The
// points come from and go to cache (the -resume directory; nil without
// one), like the daemon's. A point that overruns pool.PointTimeout (0 =
// unbounded) fails the sweep with a *exp.PointTimeoutError.
func runSpec(path string, cache *exp.ResultCache, pool *exp.Pool, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req, err := exp.ParseSweepRequest(data)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
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
