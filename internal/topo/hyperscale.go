package topo

import "fmt"

// HyperscaleConfig describes a production-shaped multi-pod Clos by the
// knobs an operator actually turns — pod count, rack count, rack size and
// the rack oversubscription ratio — and derives the switch-layer widths
// from them. It is the front door for the 10k–100k-host fabrics the scale
// experiments run on; Config() lowers it to the explicit per-layer Config
// that Build understands, with DefaultConfig's link rates and delays (the
// paper's 25/100 Gbps and 1/1/5 µs).
type HyperscaleConfig struct {
	// Pods is the number of pods.
	Pods int
	// ToRsPerPod is the number of racks per pod.
	ToRsPerPod int
	// ServersPerToR is the rack size.
	ServersPerToR int
	// Oversubscription is the rack capacity-to-uplink ratio (e.g. 4 means
	// 4:1 — hosts can inject four times what the ToR uplinks carry). It
	// determines the aggregation layer width: each ToR gets
	// ServersPerToR*ServerRate / (Oversubscription*FabricRate) uplinks,
	// which must come out a whole number. The spine is as wide as a pod's
	// aggregation layer (every aggregation switch gets one uplink per core,
	// matching the paper's 2-agg/2-core shape).
	Oversubscription float64
}

// Hosts returns the total number of servers the fabric will carry.
func (h HyperscaleConfig) Hosts() int { return h.Pods * h.ToRsPerPod * h.ServersPerToR }

// aggsPerPod derives the aggregation width per pod from the
// oversubscription ratio over base's link rates. ok is false when the rack
// does not divide into a whole number of uplinks.
func (h HyperscaleConfig) aggsPerPod(base *Config) (n int, ok bool) {
	rack := float64(h.ServersPerToR) * float64(base.ServerRate)
	exact := rack / (h.Oversubscription * float64(base.FabricRate))
	n = int(exact + 0.5)
	if n < 1 || absFloat(exact-float64(n)) > 1e-9 {
		return 0, false
	}
	return n, true
}

func absFloat(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Validate reports sizing errors with one-line messages naming the field,
// before any switch or cable is built.
func (h HyperscaleConfig) Validate() error {
	switch {
	case h.Pods <= 0:
		return fmt.Errorf("topo: hyperscale Pods = %d, want > 0", h.Pods)
	case h.ToRsPerPod <= 0:
		return fmt.Errorf("topo: hyperscale ToRsPerPod = %d, want > 0", h.ToRsPerPod)
	case h.ServersPerToR <= 0:
		return fmt.Errorf("topo: hyperscale ServersPerToR = %d, want > 0", h.ServersPerToR)
	case h.Oversubscription <= 0:
		return fmt.Errorf("topo: hyperscale Oversubscription = %g, want > 0", h.Oversubscription)
	}
	base := DefaultConfig()
	if _, ok := h.aggsPerPod(&base); !ok {
		return fmt.Errorf("topo: hyperscale Oversubscription = %g does not divide the rack: ServersPerToR*ServerRate = %g bps needs a whole number of %g bps uplinks",
			h.Oversubscription, float64(h.ServersPerToR)*float64(base.ServerRate), h.Oversubscription*float64(base.FabricRate))
	}
	return nil
}

// Config lowers the hyperscale description to the explicit layer-by-layer
// Config. The result is validated (including the arrival-key budget that
// caps total cable count), so a fabric that passes here wires cleanly.
func (h HyperscaleConfig) Config() (Config, error) {
	if err := h.Validate(); err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	aggs, _ := h.aggsPerPod(&cfg)
	cfg.Pods = h.Pods
	cfg.ToRCount = h.Pods * h.ToRsPerPod
	cfg.AggCount = h.Pods * aggs
	cfg.CoreCount = aggs
	cfg.ServersPerToR = h.ServersPerToR
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Hyperscale1k is the smoke-test fabric: 4 pods × 8 racks × 32 servers =
// 1,024 hosts at 4:1 rack oversubscription.
func Hyperscale1k() HyperscaleConfig {
	return HyperscaleConfig{Pods: 4, ToRsPerPod: 8, ServersPerToR: 32, Oversubscription: 4}
}

// Hyperscale10k is the CI-sized fabric: 10 pods × 32 racks × 32 servers =
// 10,240 hosts at 4:1 rack oversubscription.
func Hyperscale10k() HyperscaleConfig {
	return HyperscaleConfig{Pods: 10, ToRsPerPod: 32, ServersPerToR: 32, Oversubscription: 4}
}

// Hyperscale100k is the headline fabric: 25 pods × 64 racks × 64 servers =
// 102,400 hosts at 4:1 rack oversubscription.
func Hyperscale100k() HyperscaleConfig {
	return HyperscaleConfig{Pods: 25, ToRsPerPod: 64, ServersPerToR: 64, Oversubscription: 4}
}
