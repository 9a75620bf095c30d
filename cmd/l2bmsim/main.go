// Command l2bmsim runs a single hybrid-traffic scenario with custom
// parameters and prints its headline metrics — the quickest way to poke at
// one configuration. The one point runs one shard per pod on the machine's
// cores (see exp.HybridSpec.Shards); the numbers do not depend on it.
//
// Usage:
//
//	l2bmsim -policy L2BM -scale small -rdma 0.4 -tcp 0.8
//	l2bmsim -policy DT -scale tiny -tcp 0.6 -incast 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"l2bm/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "l2bmsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("l2bmsim", flag.ContinueOnError)
	policy := fs.String("policy", "L2BM", "buffer management policy (any registered name, e.g. L2BM|DT|DT2|ABM|BShare|Occamy|FB)")
	scaleName := fs.String("scale", "small", "simulation scale: tiny|small|full")
	rdma := fs.Float64("rdma", 0.4, "RDMA offered load (fraction of 25G access links)")
	tcp := fs.Float64("tcp", 0.8, "TCP offered load")
	incast := fs.Int("incast", 0, "incast fan-in degree N (0 disables the query workload)")
	seedSalt := fs.String("salt", "", "seed salt for independent repetitions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := exp.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	spec := exp.HybridSpec{
		Name:     "l2bmsim",
		Policy:   *policy,
		Scale:    scale,
		RDMALoad: *rdma,
		TCPLoad:  *tcp,
		SeedSalt: *seedSalt,
	}
	if *incast != 0 {
		spec.Incast = &exp.IncastSpec{Fanout: *incast, RequestBytes: 1 << 20, QueryRate: 752}
	}

	// RunHybrid enforces the envelope l2bmd does before building anything:
	// an unregistered policy or a load outside [0, 1] is a clean CLI error.
	res, err := exp.RunHybrid(spec)
	if err != nil {
		return err
	}

	buffer := scale.Topo().Switch.TotalShared
	fmt.Fprintf(w, "policy=%s scale=%s rdmaLoad=%.2f tcpLoad=%.2f\n", res.Policy, scale, *rdma, *tcp)
	fmt.Fprintf(w, "flows: started=%d completed=%d losslessGaps=%d\n",
		res.FlowsStarted, res.FlowsCompleted, res.LosslessGaps)
	fmt.Fprintf(w, "slowdown p99: rdma=%.2f tcp=%.2f\n", res.RDMAp99(), res.TCPp99())
	fmt.Fprintf(w, "ToR occupancy p99: %.1f%% of %d MB buffer\n",
		100*res.OccupancyP99Fraction(buffer), buffer>>20)
	fmt.Fprintf(w, "pfc pause frames: total=%d tor=%d agg=%d core=%d\n",
		res.PauseFrames, res.ToRPauseFrames, res.AggPauseFrames, res.CorePauseFrames)
	fmt.Fprintf(w, "lossy drops=%d lossless violations=%d ecn marks=%d\n",
		res.LossyDrops, res.LosslessViolations, res.ECNMarked)
	if spec.Incast != nil {
		s := res.QueryDelaySummary()
		fmt.Fprintf(w, "incast: flows=%d p99 slowdown=%.2f queries=%d mean=%.2fms max=%.2fms\n",
			len(res.IncastSlowdowns), res.Incastp99(), s.N, s.Mean, s.Max)
	}
	// The run sizes itself (Shards: 0); what its conductor did with the
	// machine's cores is the one machine-dependent part of the output.
	fmt.Fprintf(w, "simulated %v in %d events%s\n", res.EndTime, res.Events, res.Conductor)
	return nil
}
