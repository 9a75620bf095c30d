package exp

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/topo"
)

func TestScaleJSON(t *testing.T) {
	for _, tc := range []struct {
		scale Scale
		want  string
	}{
		{ScaleTiny, `"tiny"`},
		{ScaleSmall, `"small"`},
		{ScaleFull, `"full"`},
	} {
		got, err := json.Marshal(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("marshal %v = %s, want %s", tc.scale, got, tc.want)
		}
		var back Scale
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.scale {
			t.Errorf("round trip %v came back %v", tc.scale, back)
		}
	}
	// A wire scale is a name: the integer an unnamed value renders as does
	// not parse back.
	var s Scale
	if err := json.Unmarshal([]byte(jsonInt(int(ScaleSmall))), &s); err == nil {
		t.Errorf("integer scale unmarshaled as %v", s)
	}
	if err := json.Unmarshal([]byte(`"galactic"`), &s); err == nil {
		t.Error("unknown scale name unmarshaled")
	}
	if err := json.Unmarshal([]byte(`true`), &s); err == nil {
		t.Error("non-scalar scale unmarshaled")
	}
}

// Submissions the daemon used to accept (202) and then mishandle:
// incastBelowFanout failed inside the workload generator (a request too small
// to give every responder a byte), blackoutInPast panicked scheduling into the
// past, and blackoutNoSwitch ran a clean fabric (tiny has no agg9).
const (
	incastBelowFanout = `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":0.4,"Incast":{"Fanout":5,"RequestBytes":3,"QueryRate":100}}]}`
	blackoutInPast    = `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":0.4,"Faults":{"Plan":{"Blackouts":[{"Switch":"agg0","At":-5,"Duration":1000000}]}}}]}`
	blackoutNoSwitch  = `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":0.4,"Faults":{"Plan":{"Blackouts":[{"Switch":"agg9","At":0,"Duration":1000000}]}}}]}`
)

func TestParseSweepRequest(t *testing.T) {
	valid := `{"name":"ok","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}`
	req, err := ParseSweepRequest([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if req.Name != "ok" || len(req.Specs) != 1 || req.Specs[0].Scale != ScaleTiny {
		t.Errorf("parsed request wrong: %+v", req)
	}

	// A fabric holds as many shards as it has racks, at either fidelity, and
	// a blackout may take down any of its switches.
	for _, body := range []string{
		`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"hybrid","Shards":1}]}`,
		`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"hybrid","Shards":2}]}`, // hybrid sharded
		`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Shards":2}]}`,
		`{"specs":[{"Name":"p","Policy":"DT","Scale":"small","Shards":4}]}`,
		strings.Replace(blackoutNoSwitch, "agg9", "agg1", 1),
		valid + " \r\n\t", // whitespace may follow the object
	} {
		if _, err := ParseSweepRequest([]byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}

	for name, body := range map[string]string{
		"syntax":          `{"specs":`,
		"unknown field":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Polciy":"DT"}]}`,
		"trailing data":   valid + `{"more":1}`,
		"trailing ]":      valid + `]`, // json.Decoder.More reads ']' and '}' as the end of a value
		"trailing ]junk":  valid + ` ]junk`,
		"trailing }{":     valid + `}{"more":1}`,
		"no specs":        `{"name":"empty","specs":[]}`,
		"missing name":    `{"specs":[{"Policy":"DT","Scale":"tiny"}]}`,
		"missing policy":  `{"specs":[{"Name":"p","Scale":"tiny"}]}`,
		"unknown policy":  `{"specs":[{"Name":"p","Policy":"Nope","Scale":"tiny"}]}`,
		"unknown scale":   `{"specs":[{"Name":"p","Policy":"DT","Scale":99}]}`,
		"integer scale":   `{"specs":[{"Name":"p","Policy":"DT","Scale":1}]}`, // ScaleTiny's value: a scale is spelled
		"bad fidelity":    `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"analytic"}]}`,
		"removed sched":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Sched":"wheel"}]}`, // the field is gone: strict parsing rejects even a once-valid value
		"removed events":  `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Faults":{"Plan":{"Scheduled":[]}}}]}`,
		"negative shards": `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Shards":-1}]}`,
		"shards > ToRs":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny"},{"Name":"q","Policy":"DT","Scale":"tiny","Shards":5}]}`, // tiny has two racks
		"load too high":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":1.5}]}`,
		"load negative":   `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","RDMALoad":-0.1}]}`,
		"bad incast":      `{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Incast":{"Fanout":0,"RequestBytes":1,"QueryRate":1}}]}`,
		"incast < fanout": incastBelowFanout, // 3 bytes cannot give 5 responders a byte each
		"blackout < 0":    blackoutInPast,
		"blackout ghost":  blackoutNoSwitch,
	} {
		if _, err := ParseSweepRequest([]byte(body)); err == nil {
			t.Errorf("%s: want error, got success", name)
		}
	}

	// The unknown-policy message lists the registry, like the CLI.
	_, err = ParseSweepRequest([]byte(`{"specs":[{"Name":"p","Policy":"Nope","Scale":"tiny"}]}`))
	if err == nil || !strings.Contains(err.Error(), "L2BM") {
		t.Errorf("unknown-policy error should list the registry, got %v", err)
	}

	// Spec index is named so multi-point submissions pinpoint the bad one.
	_, err = ParseSweepRequest([]byte(`{"specs":[
		{"Name":"p0","Policy":"DT","Scale":"tiny"},
		{"Name":"p1","Policy":"DT","Scale":"tiny","TCPLoad":2}]}`))
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Errorf("validation error should name the failing spec, got %v", err)
	}
}

func TestSweepID(t *testing.T) {
	body := `{"name":"n","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}`
	a, err := ParseSweepRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSweepRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if a.SweepID() != b.SweepID() {
		t.Error("equal requests got different sweep IDs")
	}
	c := *a
	c.Specs = append([]HybridSpec{}, a.Specs...)
	c.Specs[0].TCPLoad = 0.5
	if c.SweepID() == a.SweepID() {
		t.Error("different specs got the same sweep ID")
	}
	if len(a.SweepID()) != 16 {
		t.Errorf("sweep ID %q is not 16 hex chars", a.SweepID())
	}
}

// checkSweepKeys asserts that Keys, from one marshal per spec, derives
// exactly SweepID and every spec's CacheKey, "" where CacheKey refuses one.
func checkSweepKeys(t *testing.T, req *SweepRequest) {
	t.Helper()
	id, keys := req.Keys()
	if want := req.SweepID(); id != want {
		t.Fatalf("Keys sweep ID %s, SweepID %s", id, want)
	}
	if len(keys) != len(req.Specs) {
		t.Fatalf("%d keys for %d specs", len(keys), len(req.Specs))
	}
	for i, sp := range req.Specs {
		want, err := CacheKey(sp)
		if err != nil {
			want = ""
		}
		if keys[i] != want {
			t.Fatalf("spec %d: Keys %q, CacheKey %q (%v)", i, keys[i], want, err)
		}
	}
}

// TestSweepKeysOneMarshal: Keys agrees with SweepID and CacheKey for specs
// whose encoding is their canonical key (Shards 0), for specs it is not
// (Shards set, or a TopoOverride whose fabric the key appends), and for
// every spec CacheKey refuses — a PolicyFactory or Hooks func, an armed
// recorder, or an encoding that fails.
func TestSweepKeysOneMarshal(t *testing.T) {
	base := HybridSpec{Name: "k", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4}
	with := func(edit func(*HybridSpec)) HybridSpec {
		sp := base
		edit(&sp)
		return sp
	}
	rows := []struct {
		name  string
		spec  HybridSpec
		keyed bool // CacheKey gives the spec a key
	}{
		{"shards 0", base, true},
		{"shards 2", with(func(sp *HybridSpec) { sp.Shards = 2 }), true},
		{"hybrid faults shards 1", with(func(sp *HybridSpec) {
			sp.Fidelity, sp.Faults, sp.Shards = FidelityHybrid, &FaultSpec{}, 1
		}), true},
		{"trace", with(func(sp *HybridSpec) { sp.Trace = &TraceSpec{} }), false},
		{"trace shards 2", with(func(sp *HybridSpec) { sp.Trace, sp.Shards = &TraceSpec{}, 2 }), false},
		{"policy factory", with(func(sp *HybridSpec) { sp.PolicyFactory = func() core.Policy { return nil } }), false},
		{"topo override", with(func(sp *HybridSpec) { sp.TopoOverride = func(*topo.Config) {} }), true},
		{"hooks", with(func(sp *HybridSpec) { sp.Hooks = &RunHooks{} }), false},
		{"unencodable", with(func(sp *HybridSpec) { sp.TCPLoad = math.NaN() }), false},
	}
	all := &SweepRequest{Name: "all"}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			req := &SweepRequest{Name: row.name, Specs: []HybridSpec{row.spec}}
			checkSweepKeys(t, req)
			if _, keys := req.Keys(); (keys[0] != "") != row.keyed {
				t.Errorf("key %q, want keyed = %v", keys[0], row.keyed)
			}
		})
		all.Specs = append(all.Specs, row.spec)
	}
	checkSweepKeys(t, all)
	if _, keys := all.Keys(); keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("Shards 0 and 2 keyed %q and %q, want one key", keys[0], keys[1])
	}
}

// TestMarshalResultsEnvelope: the canonical envelope splices exact
// json.Marshal bytes — MarshalResults over results and WriteRawResults
// over their pre-marshaled bytes agree byte for byte.
func TestMarshalResultsEnvelope(t *testing.T) {
	results := []*Result{
		{Policy: "DT", TCPSlowdowns: []float64{1.5}},
		{Policy: "L2BM", RDMASlowdowns: []float64{1, 2}},
	}
	fresh, err := MarshalResults(results)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(results))
	for i, r := range results {
		if raws[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	var cached strings.Builder
	if err := WriteRawResults(&cached, raws); err != nil {
		t.Fatal(err)
	}
	if cached.String() != string(fresh) {
		t.Errorf("fresh and raw envelopes differ:\n%s\n%s", fresh, cached.String())
	}
	if !strings.HasPrefix(string(fresh), `{"points":[`) || !strings.HasSuffix(string(fresh), "]}\n") {
		t.Errorf("envelope shape wrong: %.60s", fresh)
	}
	var decoded struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(fresh, &decoded); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if len(decoded.Points) != 2 {
		t.Errorf("envelope has %d points, want 2", len(decoded.Points))
	}
}

// sweepRequestSeeds seed FuzzParseSweepRequest, and the specs of those it
// accepts seed FuzzSpecRun.
var sweepRequestSeeds = []string{
	`{"name":"ok","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}`,
	`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Polciy":"DT"}]}`,
	`{"name":"ok","specs":[{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.4}]}{"more":1}`,
	`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","TCPLoad":1.5}]}`,
	`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Shards":1000}]}`,
	`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Fidelity":"hybrid","Shards":2}]}`,
	`{"specs":[{"Name":"p","Policy":"DT","Scale":"tiny","Faults":{"Plan":{"FlapRate":-1}}}]}`,
	incastBelowFanout,
	blackoutInPast,
	blackoutNoSwitch,
}

// FuzzParseSweepRequest feeds arbitrary bodies to the daemon's submission
// parser. The seeds (replayed by plain `go test`) are a valid request and
// the rejection classes TestParseSweepRequest names. Parsing never panics;
// a request it accepts holds only valid specs, and re-marshaling it parses
// back to the same sweep ID and the same cache key for every spec — what
// the daemon stores under is a function of the request's content alone —
// and Keys derives both exactly as SweepID and CacheKey do.
func FuzzParseSweepRequest(f *testing.F) {
	for _, seed := range sweepRequestSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSweepRequest(data)
		if err != nil {
			return
		}
		for i, sp := range req.Specs {
			if err := sp.Validate(); err != nil {
				t.Fatalf("accepted spec %d fails Validate: %v", i, err)
			}
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal an accepted request: %v", err)
		}
		back, err := ParseSweepRequest(wire)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", wire, err)
		}
		if back.SweepID() != req.SweepID() || len(back.Specs) != len(req.Specs) {
			t.Fatalf("round trip moved the sweep ID: %s -> %s (%s)", req.SweepID(), back.SweepID(), wire)
		}
		for i := range req.Specs {
			want, wantErr := CacheKey(req.Specs[i])
			got, gotErr := CacheKey(back.Specs[i])
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("spec %d cache key %q (%v) came back %q (%v)", i, want, wantErr, got, gotErr)
			}
		}
		checkSweepKeys(t, req)
	})
}
