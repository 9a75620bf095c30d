package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"l2bm/internal/sim"
)

// Bounds FuzzSpecRun holds a spec to so one exec stays near a second.
const (
	fuzzWindow     = 200 * sim.Microsecond
	fuzzDrain      = 2 * sim.Millisecond
	fuzzMinPeriod  = 10 * sim.Microsecond // auditor, detector, watchdog, trace sampler
	fuzzQueryRate  = 20_000.0             // queries per second
	fuzzQueryBytes = int64(1 << 20)
	fuzzFlapRate   = 10_000.0 // flaps per second per fabric link
	fuzzTraceRows  = 1 << 12
)

// capAt lowers *v to limit when it is above it. A value at or below the
// limit — a negative one included — is left as it is, so capping never
// makes an invalid spec valid.
func capAt[T sim.Duration | int | int64 | float64](v *T, limit T) {
	if *v > limit {
		*v = limit
	}
}

// floorAt raises a positive period below limit to it: fewer firings, the
// same validity (zero keeps meaning the default, a negative stays refused).
func floorAt(v *sim.Duration, limit sim.Duration) {
	if *v > 0 && *v < limit {
		*v = limit
	}
}

// boundForFuzz is what FuzzSpecRun runs of a decoded spec: ScaleTiny, the
// auditor armed, and every field a run's cost grows with held to the bounds
// above. The window and drain are capped at their effective values (zero
// reads as the scale's, which is above the cap). Audit.MaxPauseAge is
// cleared: it is an alarm the caller sizes to the run, not an invariant, and
// any XOFF outlives a small enough one.
func boundForFuzz(sp *HybridSpec) {
	sp.Scale = ScaleTiny
	if sp.Audit == nil {
		sp.Audit = &AuditSpec{}
	}
	if sp.WindowOverride == 0 {
		sp.WindowOverride = sp.Scale.Window()
	}
	capAt(&sp.WindowOverride, fuzzWindow)
	if sp.DrainOverride == 0 {
		sp.DrainOverride = sp.Scale.Drain()
	}
	capAt(&sp.DrainOverride, fuzzDrain)
	floorAt(&sp.Audit.Every, fuzzMinPeriod)
	capAt(&sp.Audit.MaxPauseAge, 0)
	if tr := sp.Trace; tr != nil {
		floorAt(&tr.SampleEvery, fuzzMinPeriod)
		capAt(&tr.Capacity, fuzzTraceRows)
	}
	if in := sp.Incast; in != nil {
		capAt(&in.QueryRate, fuzzQueryRate)
		capAt(&in.RequestBytes, fuzzQueryBytes)
	}
	if f := sp.Faults; f != nil {
		if !math.IsInf(f.Plan.FlapRate, 1) { // +Inf is refused; a cap would admit it
			capAt(&f.Plan.FlapRate, fuzzFlapRate)
		}
		floorAt(&f.DetectorPeriod, fuzzMinPeriod)
		floorAt(&f.WatchdogWindow, fuzzMinPeriod)
	}
}

// FuzzSpecRun: every spec Validate accepts runs as written. Arbitrary bytes
// decode strictly (DisallowUnknownFields) as one HybridSpec, which
// boundForFuzz holds to ScaleTiny with the auditor armed; if Validate
// accepts it, RunHybridCtx must return it without an error or a panic, and
// with no audit error. Plain `go test` replays the seeds only; the soak
// workflow gives it a time budget (-fuzz '^FuzzSpecRun$' -fuzztime 2m).
func FuzzSpecRun(f *testing.F) {
	for _, body := range sweepRequestSeeds {
		req, err := ParseSweepRequest([]byte(body))
		if err != nil {
			continue
		}
		for _, sp := range req.Specs {
			raw, err := json.Marshal(sp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	// A hybrid spec with a fault plan has no run: Validate refuses it.
	hybridFaults := `{"Name":"hyb-faults","Policy":"L2BM","Scale":"tiny","TCPLoad":0.3,"Fidelity":"hybrid","Faults":{"Plan":{"BER":1e-6}}}`
	if sp, ok := decodeFuzzSpec([]byte(hybridFaults)); !ok || sp.Validate() == nil {
		f.Fatalf("a hybrid spec with a fault plan decodes (%v) and passes Validate", ok)
	}
	for _, seed := range []string{
		hybridFaults,
		// A fan-out at the fabric's host count (tiny has 8): it runs.
		`{"Name":"wide-incast","Policy":"DT","Scale":"tiny","TCPLoad":0.2,"Incast":{"Fanout":8,"RequestBytes":400000,"QueryRate":20000}}`,
		`{"Name":"flaps","Policy":"Occamy","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.6,"Shards":2,` +
			`"Faults":{"Plan":{"FlapRate":500,"FlapDowntime":20000000,"BER":1e-6,"PFCLossRate":0.02},"BreakDeadlocks":true}}`,
		`{"Name":"blackout","Policy":"DT","Scale":"tiny","TCPLoad":0.4,"Faults":{"Plan":{"Blackouts":[{"Switch":"agg1","At":0,"Duration":1000000}]}}}`,
		`{"Name":"hybrid-traced","Policy":"ABM","Scale":"tiny","RDMALoad":0.1,"TCPLoad":0.1,"Fidelity":"hybrid","Trace":{"SampleEvery":1}}`,
		`{"Name":"hybrid-incast","Policy":"BShare","Scale":"tiny","RDMALoad":0.2,"TCPLoad":0.2,"InterRackOnly":true,"Fidelity":"hybrid","Shards":2,` +
			`"Incast":{"Fanout":5,"RequestBytes":200000,"QueryRate":20000}}`,
		`{"Name":"evicting","Policy":"TDT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.8,"SeedSalt":"s","Trace":{"Capacity":3},` +
			`"Audit":{"Every":20000000}}`,
		`{"Name":"pfc-loss","Policy":"EDT","Scale":"tiny","RDMALoad":0.6,"Shards":1,"WindowOverride":100000000,"DrainOverride":500000000,` +
			`"Faults":{"Plan":{"PFCLossRate":0.5,"Blackouts":[{"Switch":"tor0","At":50000000,"Duration":30000000}]},"DetectorPeriod":20000000,"WatchdogWindow":50000000}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, ok := decodeFuzzSpec(data)
		if !ok {
			return
		}
		boundForFuzz(&sp)
		if sp.Validate() != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := RunHybridCtx(ctx, sp)
		if err != nil {
			t.Fatalf("valid spec %s: %v", specJSON(sp), err)
		}
		if len(res.AuditErrors) > 0 {
			t.Fatalf("valid spec %s: %d audit errors, first %s", specJSON(sp), len(res.AuditErrors), res.AuditErrors[0])
		}
	})
}

// decodeFuzzSpec decodes data as exactly one HybridSpec, strictly.
func decodeFuzzSpec(data []byte) (HybridSpec, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp HybridSpec
	if dec.Decode(&sp) != nil || dec.More() {
		return sp, false
	}
	return sp, true
}

func specJSON(sp HybridSpec) string {
	raw, _ := json.Marshal(sp)
	return string(raw)
}
