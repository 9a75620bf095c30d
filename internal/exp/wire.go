// Wire representation of sweeps: the JSON request l2bmd accepts and the
// canonical result encoding shared by the daemon and the CLI's -spec mode.
// Canonical means byte-identical: MarshalResults splices each point's
// json.Marshal output into a fixed envelope, so a daemon serving cached
// bytes and a CLI marshaling fresh results produce the same file — the
// equivalence CI diffs.
package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"

	"l2bm/internal/core"
)

// MarshalJSON renders a Scale as its CLI name ("tiny"|"small"|"full"), so
// wire specs read like command lines; unnamed values fall back to the raw
// integer.
func (s Scale) MarshalJSON() ([]byte, error) {
	switch s {
	case ScaleTiny, ScaleSmall, ScaleFull:
		return json.Marshal(s.String())
	default:
		return json.Marshal(int(s))
	}
}

// UnmarshalJSON accepts the CLI name only: a wire spec spells its scale.
func (s *Scale) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("exp: scale must be a name (tiny|small|full), got %s", data)
	}
	v, err := ParseScale(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// SweepRequest is one sweep submission: a named list of point specs. Specs
// use their Go field names on the wire (the same encoding cache entries use);
// func-valued fields are excluded by their json tags, so a wire spec is
// always plain data.
type SweepRequest struct {
	// Name labels the sweep in status output; optional.
	Name string `json:"name,omitempty"`
	// Specs are the grid points, run in order through the pool.
	Specs []HybridSpec `json:"specs"`
}

// ParseSweepRequest decodes and validates a submission strictly: unknown
// fields are rejected (a typo'd field name must 400, not silently run a
// different sweep), so is anything but whitespace after the object, and
// every spec is validated before any simulation.
func ParseSweepRequest(data []byte) (*SweepRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("exp: sweep request: %w", err)
	}
	// Only whitespace may follow the object. More would miss a trailing
	// ']' or '}', which it reads as the end of an enclosing value.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("exp: sweep request: trailing data after the JSON object")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks every spec (HybridSpec.Validate) before any simulation.
func (r *SweepRequest) Validate() error {
	if len(r.Specs) == 0 {
		return fmt.Errorf("exp: sweep request: no specs")
	}
	for i, sp := range r.Specs {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("exp: sweep request: spec %d: %w", i, err)
		}
	}
	return nil
}

// Validate is the envelope every run passes: RunHybrid checks it before
// building anything, and the daemon, l2bmexp -spec and the harness check it
// upfront so a bad point fails before any other runs. It asks for a name (it
// seeds the run), one policy source — a registered Policy or a
// PolicyFactory, not both — known scale/fidelity values, no negative
// override, period or capacity, loads in [0, 1], incast parameters every
// responder can send at least a byte of, a valid fault plan whose blackouts
// name switches of the fabric and which runs at packet fidelity, a shard
// count the fabric can hold, and a second rack when traffic must leave its
// own.
func (sp HybridSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("Name is required (it seeds the run)")
	}
	switch {
	case sp.PolicyFactory != nil:
		if sp.Policy != "" {
			return fmt.Errorf("Policy %q and a PolicyFactory are both set (a run has one policy source)", sp.Policy)
		}
	case sp.Policy == "":
		return fmt.Errorf("Policy is required")
	case !core.IsRegistered(sp.Policy):
		return fmt.Errorf("unknown policy %q (have %s)", sp.Policy, strings.Join(core.RegisteredPolicies(), " "))
	}
	switch sp.Scale {
	case ScaleTiny, ScaleSmall, ScaleFull:
	default:
		return fmt.Errorf("unknown scale %d (want tiny|small|full)", int(sp.Scale))
	}
	if sp.Fidelity != FidelityPacket && sp.Fidelity != FidelityHybrid {
		return fmt.Errorf("unknown fidelity %q (want %q for packet or %q)", sp.Fidelity, FidelityPacket, FidelityHybrid)
	}
	if sp.Shards < 0 {
		return fmt.Errorf("Shards must be >= 0, got %d", sp.Shards)
	}
	// Each of these reads zero as "the default", so a negative value would
	// run as the default spec and cache one result under several keys. An
	// absent Audit or Trace checks as its zero value.
	var audit AuditSpec
	if sp.Audit != nil {
		audit = *sp.Audit
	}
	var tr TraceSpec
	if sp.Trace != nil {
		tr = *sp.Trace
	}
	for _, st := range []struct {
		name string
		v    int64
	}{
		{"WindowOverride", int64(sp.WindowOverride)},
		{"DrainOverride", int64(sp.DrainOverride)},
		{"Audit.Every", int64(audit.Every)},
		{"Audit.MaxPauseAge", int64(audit.MaxPauseAge)},
		{"Trace.SampleEvery", int64(tr.SampleEvery)},
		{"Trace.Capacity", int64(tr.Capacity)},
	} {
		if st.v < 0 {
			return fmt.Errorf("%s = %d, want >= 0 (0 means the default)", st.name, st.v)
		}
	}
	// The resolved fabric caps the shard count — every shard owns at least one
	// rack (topo.ComputePartition), and a self-sized run (0) fits itself — and
	// names the switches a blackout may take down.
	cfg := sp.fabric()
	if sp.Shards > cfg.ToRCount {
		return fmt.Errorf("Shards = %d, but the fabric has %d ToRs (every shard owns at least one)", sp.Shards, cfg.ToRCount)
	}
	if sp.InterRackOnly && cfg.ToRCount < 2 {
		return fmt.Errorf("InterRackOnly needs at least two ToRs, but the fabric has %d", cfg.ToRCount)
	}
	for _, load := range []struct {
		name string
		v    float64
	}{{"RDMALoad", sp.RDMALoad}, {"TCPLoad", sp.TCPLoad}} {
		if math.IsNaN(load.v) || math.IsInf(load.v, 0) || load.v < 0 || load.v > 1 {
			return fmt.Errorf("%s = %v, want in [0, 1]", load.name, load.v)
		}
	}
	if in := sp.Incast; in != nil {
		if in.Fanout <= 0 || in.RequestBytes <= 0 || in.QueryRate <= 0 {
			return fmt.Errorf("Incast needs positive Fanout, RequestBytes and QueryRate")
		}
		if in.RequestBytes < int64(in.Fanout) {
			return fmt.Errorf("Incast.RequestBytes = %d is fewer than Fanout = %d (every responder sends at least one byte)", in.RequestBytes, in.Fanout)
		}
	}
	if sp.Faults == nil {
		return nil
	}
	if sp.Fidelity == FidelityHybrid {
		// A fault plan is a standing fidelity trigger: the fluid controller
		// would never leave packet mode, so the spec could only run as the
		// packet spec it is not.
		return fmt.Errorf("Fidelity %q with Faults set: a faulted point runs at packet fidelity only", sp.Fidelity)
	}
	if err := sp.Faults.Plan.Validate(); err != nil {
		return err
	}
	names := cfg.SwitchNames()
	for _, b := range sp.Faults.Plan.Blackouts {
		if !slices.Contains(names, b.Switch) {
			return fmt.Errorf("blackout names switch %q, which the fabric lacks", b.Switch)
		}
	}
	return nil
}

// SweepID content-hashes the request into a stable identifier fragment:
// equal submissions map to equal fragments, so resubmitting a sweep is
// visibly the same sweep. Wire specs are plain data, so the JSON encoding
// is itself canonical.
func (r *SweepRequest) SweepID() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "name=%s n=%d\n", r.Name, len(r.Specs))
	enc := json.NewEncoder(h)
	for _, sp := range r.Specs {
		_ = enc.Encode(sp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Keys is SweepID and every spec's CacheKey from one json.Marshal per spec,
// for the daemon's submission path, which needs both. SweepID hashes each
// spec's encoding and specKey is that same encoding whenever Shards is 0 and
// no TopoOverride adds its fabric, so one marshal feeds both hashes; any
// other spec pays CacheKey's own.
// keys[i] is "" where CacheKey refuses spec i.
func (r *SweepRequest) Keys() (id string, keys []string) {
	h := fnv.New64a()
	fmt.Fprintf(h, "name=%s n=%d\n", r.Name, len(r.Specs))
	keys = make([]string, len(r.Specs))
	for i, sp := range r.Specs {
		enc, err := json.Marshal(sp)
		if err != nil {
			// SweepID's Encode writes nothing for it either, and the same
			// field fails specKey's marshal whatever Shards is.
			continue
		}
		_, _ = h.Write(enc)
		_, _ = h.Write(newline)
		switch {
		case checkpointIneligible(sp) != "":
		case sp.Shards == 0 && sp.TopoOverride == nil:
			keys[i] = hashKey(CheckpointVersion, enc)
		default:
			keys[i], _ = CacheKey(sp)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), keys
}

var newline = []byte{'\n'}

// MarshalResults renders a sweep's results in the canonical envelope:
//
//	{"points":[<result>,<result>,…]}
//
// followed by one newline. Each point is exactly json.Marshal(*Result) —
// the same bytes the result cache stores — so fresh runs, cache hits, the
// daemon and the CLI all emit byte-identical output for equal specs.
func MarshalResults(results []*Result) ([]byte, error) {
	raws := make([]json.RawMessage, len(results))
	for i, r := range results {
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("exp: marshal point %d: %w", i, err)
		}
		raws[i] = raw
	}
	var buf bytes.Buffer
	buf.Grow(RawResultsLen(raws))
	_ = WriteRawResults(&buf, raws) // a bytes.Buffer write cannot fail
	return buf.Bytes(), nil
}

// Envelope framing around the comma-joined points.
const (
	envelopeOpen  = `{"points":[`
	envelopeClose = "]}\n"
)

var envelopeComma = []byte{','}

// RawResultsLen is the exact byte length WriteRawResults writes for raws —
// what lets an HTTP handler announce Content-Length and then splice.
func RawResultsLen(raws []json.RawMessage) int {
	n := len(envelopeOpen) + len(envelopeClose) + max(len(raws)-1, 0)
	for _, raw := range raws {
		n += len(raw)
	}
	return n
}

// WriteRawResults splices raws into the canonical envelope on w without
// assembling it in memory first: the one implementation of the splice,
// behind MarshalResults, l2bmexp -spec and the daemon's /result handler.
func WriteRawResults(w io.Writer, raws []json.RawMessage) error {
	if _, err := io.WriteString(w, envelopeOpen); err != nil {
		return err
	}
	for i, raw := range raws {
		if i > 0 {
			if _, err := w.Write(envelopeComma); err != nil {
				return err
			}
		}
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, envelopeClose)
	return err
}
