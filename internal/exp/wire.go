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

// UnmarshalJSON accepts either the CLI name or the integer form.
func (s *Scale) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		v, err := ParseScale(name)
		if err != nil {
			return err
		}
		*s = v
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("exp: scale must be a name (tiny|small|full) or integer, got %s", data)
	}
	*s = Scale(n)
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
// different sweep), and every spec is validated before any simulation.
func ParseSweepRequest(data []byte) (*SweepRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("exp: sweep request: %w", err)
	}
	if dec.More() {
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
// seeds the run), a registered policy unless a PolicyFactory stands in for
// one, known scale/fidelity values, loads in [0, 1], incast parameters every
// responder can send at least a byte of, a valid fault plan whose blackouts
// name switches of the fabric, a shard count the fabric can hold, and a
// second rack when traffic must leave its own.
func (sp HybridSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("Name is required (it seeds the run)")
	}
	if sp.PolicyFactory == nil {
		if sp.Policy == "" {
			return fmt.Errorf("Policy is required")
		}
		if !core.IsRegistered(sp.Policy) {
			return fmt.Errorf("unknown policy %q (have %s)", sp.Policy, strings.Join(core.RegisteredPolicies(), " "))
		}
	}
	switch sp.Scale {
	case ScaleTiny, ScaleSmall, ScaleFull:
	default:
		return fmt.Errorf("unknown scale %d (want tiny|small|full)", int(sp.Scale))
	}
	switch sp.Fidelity {
	case "", FidelityPacket, FidelityHybrid:
	default:
		return fmt.Errorf("unknown fidelity %q (want %q or %q)", sp.Fidelity, FidelityPacket, FidelityHybrid)
	}
	if sp.Shards < 0 {
		return fmt.Errorf("Shards must be >= 0, got %d", sp.Shards)
	}
	// The resolved fabric caps the shard count — every shard owns at least one
	// rack (topo.ComputePartition), and a self-sized run (0) fits itself — and
	// names the switches a blackout may take down.
	cfg := sp.Scale.Topo()
	if sp.TopoOverride != nil {
		sp.TopoOverride(&cfg)
	}
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
