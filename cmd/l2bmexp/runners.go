package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/signal"

	"l2bm/internal/exp"
)

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
	_, keys := req.Keys()
	raws := make([]json.RawMessage, len(req.Specs))
	_, _, err = pool.Run(ctx, len(req.Specs), func(ctx context.Context, i int) (*exp.Result, error) {
		raw, res, err := cache.Point(ctx, keys[i], req.Specs[i], exp.RunHybridCtx)
		raws[i] = raw
		return res, err
	}, nil)
	if err != nil {
		return err
	}
	return exp.WriteRawResults(w, raws)
}
