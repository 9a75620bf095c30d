package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"l2bm/internal/sim"
	"l2bm/internal/topo"
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

// fuzzFabrics is how many fabrics FuzzSpecRun's fabric argument selects
// besides ScaleTiny's own: TinyConfig with 1–2 pods, 1–2 ToRs and 1–2 aggs
// per pod, 1–2 cores and 2–4 servers per ToR.
const fuzzFabrics = 48

// fuzzFabric is the TopoOverride FuzzSpecRun runs a spec on: fabric
// % (fuzzFabrics+1) == 0 keeps ScaleTiny's fabric, and 1–fuzzFabrics pick
// one of the others, the pod count varying fastest. Every one arms the
// packet pools' use-after-free audit.
func fuzzFabric(fabric uint8) func(*topo.Config) {
	i := int(fabric) % (fuzzFabrics + 1)
	return func(cfg *topo.Config) {
		cfg.PacketPoolDebug = true
		if i == 0 {
			return
		}
		i := i - 1
		cfg.Pods = 1 + i%2
		cfg.ToRCount = cfg.Pods * (1 + i/2%2)
		cfg.AggCount = cfg.Pods * (1 + i/4%2)
		cfg.CoreCount = 1 + i/8%2
		cfg.ServersPerToR = 2 + i/16
	}
}

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
// reads as the scale's, which is above the cap). Audit.MaxPauseAge is an
// alarm sized to the run, not an invariant — any XOFF outlives a small enough
// one — so the spec's own is cleared. A clean fabric drained for at least six
// windows gets window + drain/2: a pause may last while the offered load
// sustains congestion, but once injection stops it must clear.
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
	if sp.Faults == nil && sp.WindowOverride > 0 && sp.DrainOverride >= 6*sp.WindowOverride {
		sp.Audit.MaxPauseAge = sp.WindowOverride + sp.DrainOverride/2
	}
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

// chaosSeeds are the scenarios the retired randomized soak ran as its smoke
// test, seeds 0–29: each spec's JSON and the fuzzFabric it ran on.
var chaosSeeds = []struct {
	fabric uint8
	spec   string
}{
	// chaos seed 0
	{37, `{"Audit":{"Every":181500000},"DrainOverride":10164000000,"Incast":{"Fanout":3,"QueryRate":1455.66381649719,"RequestBytes":69259},"Name":"chaos-0","Policy":"Occamy","Scale":"tiny","SeedSalt":"chaos-salt-0","TCPLoad":0.6242657206518659,"WindowOverride":1452000000}`},
	// chaos seed 1
	{32, `{"Audit":{"Every":128500000},"DrainOverride":10280000000,"Incast":{"Fanout":5,"QueryRate":1832.300162548901,"RequestBytes":68162},"InterRackOnly":true,"Name":"chaos-1","Policy":"BShare","Scale":"tiny","SeedSalt":"chaos-salt-1","TCPLoad":0.225215403786233,"WindowOverride":1028000000}`},
	// chaos seed 2
	{33, `{"Audit":{"Every":159500000},"DrainOverride":10208000000,"Incast":{"Fanout":3,"QueryRate":1830.9626444440353,"RequestBytes":34145},"Name":"chaos-2","Policy":"FB","RDMALoad":0.3975003847098715,"Scale":"tiny","SeedSalt":"chaos-salt-2","TCPLoad":0.2649234312829922,"WindowOverride":1276000000}`},
	// chaos seed 3
	{35, `{"Audit":{"Every":38250000},"DrainOverride":3978000000,"Faults":{"Plan":{"FlapDowntime":283000000,"FlapRate":232.39108954404685,"FlapWindow":306000000}},"Incast":{"Fanout":4,"QueryRate":1722.7199729274064,"RequestBytes":130981},"Name":"chaos-3","Policy":"L2BM","Scale":"tiny","SeedSalt":"chaos-salt-3","Shards":2,"TCPLoad":0.5061488499075588,"WindowOverride":306000000}`},
	// chaos seed 4
	{14, `{"Audit":{"Every":112000000},"DrainOverride":8960000000,"Faults":{"Plan":{"FlapDowntime":186000000,"FlapRate":273.197988431832,"FlapWindow":896000000}},"InterRackOnly":true,"Name":"chaos-4","Policy":"Occamy","RDMALoad":0.6805868409977512,"Scale":"tiny","SeedSalt":"chaos-salt-4","TCPLoad":0.5463593711274035,"WindowOverride":896000000}`},
	// chaos seed 5
	{5, `{"Audit":{"Every":80500000},"DrainOverride":9016000000,"Faults":{"Plan":{"BER":4.9e-7,"FlapDowntime":298000000,"FlapRate":183.68672225355243,"FlapWindow":644000000}},"Name":"chaos-5","Policy":"Occamy","Scale":"tiny","SeedSalt":"chaos-salt-5","TCPLoad":0.7863475403417919,"WindowOverride":644000000}`},
	// chaos seed 6
	{19, `{"Audit":{"Every":110375000},"DrainOverride":5298000000,"Name":"chaos-6","Policy":"L2BM","RDMALoad":0.7645088595479853,"Scale":"tiny","SeedSalt":"chaos-salt-6","TCPLoad":0.12719913054416393,"WindowOverride":883000000}`},
	// chaos seed 7
	{45, `{"Audit":{"Every":186375000},"DrainOverride":14910000000,"Faults":{"Plan":{"BER":7e-8,"FlapDowntime":360000000,"FlapRate":433.49727235860536,"FlapWindow":1491000000,"PFCLossRate":0.00009223613614419817}},"Incast":{"Fanout":3,"QueryRate":3470.6741952178704,"RequestBytes":88570},"Name":"chaos-7","Policy":"TDT","Scale":"tiny","SeedSalt":"chaos-salt-7","TCPLoad":0.37414564131208883,"WindowOverride":1491000000}`},
	// chaos seed 8
	{21, `{"Audit":{"Every":61500000},"DrainOverride":6888000000,"Faults":{"Plan":{"BER":8.1e-7,"Blackouts":[{"At":352471315,"Duration":123000000,"Switch":"agg0"}],"FlapWindow":492000000,"PFCLossRate":0.03603475140091427}},"Name":"chaos-8","Policy":"Occamy","RDMALoad":0.2904071742448777,"Scale":"tiny","SeedSalt":"chaos-salt-8","TCPLoad":0.41399843915505985,"WindowOverride":492000000}`},
	// chaos seed 9
	{10, `{"Audit":{"Every":84000000},"DrainOverride":5376000000,"InterRackOnly":true,"Name":"chaos-9","Policy":"TDT","Scale":"tiny","SeedSalt":"chaos-salt-9","Shards":2,"TCPLoad":0.6548121565825034,"WindowOverride":672000000}`},
	// chaos seed 10
	{13, `{"Audit":{"Every":29125000},"DrainOverride":1631000000,"Name":"chaos-10","Policy":"DT","RDMALoad":0.3578309634626461,"Scale":"tiny","SeedSalt":"chaos-salt-10","TCPLoad":0.6947739090911755,"WindowOverride":233000000}`},
	// chaos seed 11
	{39, `{"Audit":{"Every":116125000},"DrainOverride":9290000000,"Faults":{"Plan":{"FlapWindow":929000000,"PFCLossRate":0.015536134913675706}},"Name":"chaos-11","Policy":"Occamy","Scale":"tiny","SeedSalt":"chaos-salt-11","TCPLoad":0.8350456563231067,"WindowOverride":929000000}`},
	// chaos seed 12
	{36, `{"Audit":{"Every":29750000},"DrainOverride":3332000000,"Faults":{"Plan":{"BER":9.4e-7,"Blackouts":[{"At":83594111,"Duration":79333333,"Switch":"tor0"}],"FlapWindow":238000000}},"Incast":{"Fanout":3,"QueryRate":2607.4145596405924,"RequestBytes":159793},"InterRackOnly":true,"Name":"chaos-12","Policy":"BShare","RDMALoad":0.3073478644666323,"Scale":"tiny","SeedSalt":"chaos-salt-12","TCPLoad":0.8762331306654625,"WindowOverride":238000000}`},
	// chaos seed 13
	{47, `{"Audit":{"Every":71500000},"DrainOverride":5720000000,"Incast":{"Fanout":5,"QueryRate":1839.8946186186754,"RequestBytes":84398},"InterRackOnly":true,"Name":"chaos-13","Policy":"Occamy","Scale":"tiny","SeedSalt":"chaos-salt-13","Shards":2,"TCPLoad":0.315964522669564,"WindowOverride":572000000}`},
	// chaos seed 14
	{6, `{"Audit":{"Every":72500000},"DrainOverride":4060000000,"Incast":{"Fanout":2,"QueryRate":1840.6983764418135,"RequestBytes":192067},"InterRackOnly":true,"Name":"chaos-14","Policy":"L2BM","RDMALoad":0.3529877978636231,"Scale":"tiny","SeedSalt":"chaos-salt-14","Shards":2,"TCPLoad":0.3501861573017081,"WindowOverride":580000000}`},
	// chaos seed 15
	{2, `{"Audit":{"Every":62375000},"DrainOverride":3493000000,"Name":"chaos-15","Policy":"TDT","RDMALoad":0.297409744507367,"Scale":"tiny","SeedSalt":"chaos-salt-15","Shards":2,"WindowOverride":499000000}`},
	// chaos seed 16
	{11, `{"Audit":{"Every":182625000},"DrainOverride":13149000000,"Name":"chaos-16","Policy":"EDT","Scale":"tiny","SeedSalt":"chaos-salt-16","TCPLoad":0.631155702625951,"WindowOverride":1461000000}`},
	// chaos seed 17
	{24, `{"Audit":{"Every":166125000},"DrainOverride":7974000000,"Name":"chaos-17","Policy":"L2BM","Scale":"tiny","SeedSalt":"chaos-salt-17","TCPLoad":0.17138502046711335,"WindowOverride":1329000000}`},
	// chaos seed 18
	{6, `{"Audit":{"Every":83875000},"DrainOverride":6710000000,"Incast":{"Fanout":3,"QueryRate":978.431582367437,"RequestBytes":111380},"InterRackOnly":true,"Name":"chaos-18","Policy":"L2BM","RDMALoad":0.6406418978455224,"Scale":"tiny","SeedSalt":"chaos-salt-18","Shards":2,"TCPLoad":0.2127092426957183,"WindowOverride":671000000}`},
	// chaos seed 19
	{10, `{"Audit":{"Every":58875000},"DrainOverride":5652000000,"Faults":{"Plan":{"FlapDowntime":331000000,"FlapRate":481.75538382938464,"FlapWindow":471000000}},"Incast":{"Fanout":2,"QueryRate":866.9021103474295,"RequestBytes":46315},"InterRackOnly":true,"Name":"chaos-19","Policy":"EDT","Scale":"tiny","SeedSalt":"chaos-salt-19","TCPLoad":0.45223435517602084,"WindowOverride":471000000}`},
	// chaos seed 20
	{9, `{"Audit":{"Every":141250000},"DrainOverride":14690000000,"Faults":{"Plan":{"FlapWindow":1130000000,"PFCLossRate":0.04358538822382446}},"Name":"chaos-20","Policy":"TDT","Scale":"tiny","SeedSalt":"chaos-salt-20","TCPLoad":0.4935361152031005,"WindowOverride":1130000000}`},
	// chaos seed 21
	{31, `{"Audit":{"Every":95625000},"DrainOverride":9180000000,"Faults":{"Plan":{"FlapWindow":765000000,"PFCLossRate":0.017164174161404113}},"Name":"chaos-21","Policy":"EDT","Scale":"tiny","SeedSalt":"chaos-salt-21","TCPLoad":0.7403824902262812,"WindowOverride":765000000}`},
	// chaos seed 22
	{28, `{"Audit":{"Every":142875000},"DrainOverride":12573000000,"Faults":{"Plan":{"BER":9.8e-7,"FlapDowntime":391000000,"FlapRate":185.864104091098,"FlapWindow":1143000000}},"Name":"chaos-22","Policy":"Occamy","Scale":"tiny","SeedSalt":"chaos-salt-22","TCPLoad":0.6800433137002171,"WindowOverride":1143000000}`},
	// chaos seed 23
	{6, `{"Audit":{"Every":155750000},"DrainOverride":8722000000,"Incast":{"Fanout":2,"QueryRate":2630.6110982179234,"RequestBytes":110923},"Name":"chaos-23","Policy":"L2BM","RDMALoad":0.6130622181543661,"Scale":"tiny","SeedSalt":"chaos-salt-23","Shards":2,"TCPLoad":0.12117166036036922,"WindowOverride":1246000000}`},
	// chaos seed 24
	{38, `{"Audit":{"Every":93250000},"DrainOverride":8206000000,"Faults":{"Plan":{"FlapDowntime":93000000,"FlapRate":145.79122926954904,"FlapWindow":746000000}},"Incast":{"Fanout":4,"QueryRate":3065.7369528700615,"RequestBytes":46848},"InterRackOnly":true,"Name":"chaos-24","Policy":"L2BM","Scale":"tiny","SeedSalt":"chaos-salt-24","TCPLoad":0.16151426255573256,"WindowOverride":746000000}`},
	// chaos seed 25
	{30, `{"Audit":{"Every":78750000},"DrainOverride":5040000000,"Incast":{"Fanout":2,"QueryRate":2739.2551409240855,"RequestBytes":108830},"Name":"chaos-25","Policy":"Occamy","RDMALoad":0.1635859090867476,"Scale":"tiny","SeedSalt":"chaos-salt-25","Shards":2,"TCPLoad":0.4013681571384885,"WindowOverride":630000000}`},
	// chaos seed 26
	{48, `{"Audit":{"Every":120000000},"DrainOverride":10560000000,"Faults":{"Plan":{"BER":9.600000000000001e-7,"FlapDowntime":347000000,"FlapRate":316.3276688241085,"FlapWindow":960000000}},"Name":"chaos-26","Policy":"FB","Scale":"tiny","SeedSalt":"chaos-salt-26","Shards":2,"TCPLoad":0.44238691452632306,"WindowOverride":960000000}`},
	// chaos seed 27
	{23, `{"Audit":{"Every":140125000},"DrainOverride":11210000000,"Name":"chaos-27","Policy":"L2BM","RDMALoad":0.17070359894763354,"Scale":"tiny","SeedSalt":"chaos-salt-27","Shards":2,"TCPLoad":0.6820699558230243,"WindowOverride":1121000000}`},
	// chaos seed 28
	{47, `{"Audit":{"Every":32625000},"DrainOverride":2610000000,"Faults":{"Plan":{"FlapWindow":261000000,"PFCLossRate":0.037286079650655835}},"Incast":{"Fanout":2,"QueryRate":1751.5746380494788,"RequestBytes":84213},"Name":"chaos-28","Policy":"TDT","Scale":"tiny","SeedSalt":"chaos-salt-28","Shards":2,"TCPLoad":0.8415256335205706,"WindowOverride":261000000}`},
	// chaos seed 29
	{26, `{"Audit":{"Every":179500000},"DrainOverride":10052000000,"Incast":{"Fanout":4,"QueryRate":1244.036863296079,"RequestBytes":113203},"InterRackOnly":true,"Name":"chaos-29","Policy":"EDT","RDMALoad":0.7686732170252302,"Scale":"tiny","SeedSalt":"chaos-salt-29","TCPLoad":0.28244740536027413,"WindowOverride":1436000000}`},
}

// FuzzSpecRun: every spec Validate accepts runs as written. Arbitrary bytes
// decode strictly (DisallowUnknownFields) as one HybridSpec, which
// boundForFuzz holds to ScaleTiny with the auditor armed and fuzzFabric
// places on one of 49 small fabrics; if Validate accepts it, RunHybridCtx
// must return it without an error or a panic, and with no audit error.
// Plain `go test` replays the seeds only; the soak workflow gives it a time
// budget (-fuzz '^FuzzSpecRun$' -fuzztime 2m).
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
			f.Add(raw, uint8(0))
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
		f.Add([]byte(seed), uint8(0))
	}
	for i, seed := range chaosSeeds {
		if _, err := fuzzSpec([]byte(seed.spec), seed.fabric); err != nil {
			f.Fatalf("chaos seed %d: %v", i, err)
		}
		f.Add([]byte(seed.spec), seed.fabric)
	}
	f.Fuzz(func(t *testing.T, data []byte, fabric uint8) {
		sp, err := fuzzSpec(data, fabric)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := RunHybridCtx(ctx, sp)
		if err != nil {
			t.Fatalf("valid spec %s on fabric %d: %v", specJSON(sp), fabric, err)
		}
		if len(res.AuditErrors) > 0 {
			t.Fatalf("valid spec %s on fabric %d: %d audit errors, first %s", specJSON(sp), fabric, len(res.AuditErrors), res.AuditErrors[0])
		}
	})
}

// fuzzSpec is what FuzzSpecRun runs of data on fabric, or why it runs
// nothing: data must decode (decodeFuzzSpec) and, bounded and placed, pass
// Validate.
func fuzzSpec(data []byte, fabric uint8) (HybridSpec, error) {
	sp, ok := decodeFuzzSpec(data)
	if !ok {
		return sp, errors.New("not exactly one HybridSpec")
	}
	boundForFuzz(&sp)
	sp.TopoOverride = fuzzFabric(fabric)
	return sp, sp.Validate()
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
