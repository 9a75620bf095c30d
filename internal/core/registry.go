package core

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Constructor builds a fresh, unshared Policy instance. Every experiment
// point gets its own instance so stateful policies (L2BM's sojourn table,
// EDT/TDT state machines, BShare's delay tracker) never leak state across
// runs or shards.
type Constructor func() Policy

// registryEntry pairs a policy name with its constructor. The registry is
// an ordered slice, not a map: iteration order is part of the determinism
// contract (experiment grids and conformance sweeps walk it in a fixed
// order regardless of Go's map randomization).
type registryEntry struct {
	name string
	ctor Constructor
}

var (
	registry []registryEntry
	// registryVersion is RegistryVersion's value, re-derived by every
	// Register.
	registryVersion string
)

// Register adds a policy under name. It is called from this package's init
// only; the panics turn registration mistakes (duplicate name, nil
// constructor) into immediate build-time test failures rather than silent
// shadowing.
func Register(name string, ctor Constructor) {
	if name == "" {
		panic("core: Register with empty policy name")
	}
	if ctor == nil {
		panic("core: Register(" + name + ") with nil constructor")
	}
	for _, e := range registry {
		if e.name == name {
			panic("core: duplicate policy registration " + name)
		}
	}
	registry = append(registry, registryEntry{name: name, ctor: ctor})
	h := fnv.New64a()
	_, _ = h.Write([]byte(strings.Join(RegisteredPolicies(), ",")))
	registryVersion = fmt.Sprintf("%016x", h.Sum64())
}

// RegistryVersion content-hashes the registry: the FNV-64a hex of the
// comma-joined names, in registration order, so adding, removing or
// reordering a policy changes it. Result-cache keys fold it in; a change to
// what a registered policy does must bump exp.CheckpointVersion instead.
func RegistryVersion() string { return registryVersion }

// RegisteredPolicies returns every policy name in registration order: the
// paper's four schemes first (L2BM, DT, DT2, ABM), then the related-work
// policies (EDT, TDT, BShare, Occamy, FB). This is the canonical iteration
// order for the arena grid and the conformance suite. The returned slice
// is a copy; callers may mutate it.
func RegisteredPolicies() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// IsRegistered reports whether name resolves in the registry.
func IsRegistered(name string) bool {
	for _, e := range registry {
		if e.name == name {
			return true
		}
	}
	return false
}

// NewPolicy builds a fresh instance of the named policy. Unknown names
// return an error that lists the registry contents, so CLI validation can
// surface the full menu before any simulation starts.
func NewPolicy(name string) (Policy, error) {
	for _, e := range registry {
		if e.name == name {
			return e.ctor(), nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have %s)",
		name, strings.Join(RegisteredPolicies(), " "))
}

// MustNewPolicy is NewPolicy for callers that already validated the name;
// it panics on unknown names.
func MustNewPolicy(name string) Policy {
	p, err := NewPolicy(name)
	if err != nil {
		panic(err.Error())
	}
	return p
}

func init() {
	Register("L2BM", func() Policy { return NewDefaultL2BM() })
	Register("DT", func() Policy { return NewDT() })
	Register("DT2", func() Policy { return NewDT2() })
	Register("ABM", func() Policy { return NewABM() })
	Register("EDT", func() Policy { return NewEDT() })
	Register("TDT", func() Policy { return NewTDT() })
	Register("BShare", func() Policy { return NewBShare() })
	Register("Occamy", func() Policy { return NewOccamy() })
	Register("FB", func() Policy { return NewFB() })
}
