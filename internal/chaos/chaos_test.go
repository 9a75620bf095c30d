package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"l2bm/internal/exp"
	"l2bm/internal/topo"
)

// TestGenerateValidAndDeterministic: every seed in the smoke range yields a
// scenario inside the validity envelope, and generation is a pure function
// of the seed.
func TestGenerateValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%+v", seed, err, sc)
		}
		if again := Generate(seed); again != sc {
			t.Fatalf("seed %d: generation not deterministic:\n%+v\n%+v", seed, sc, again)
		}
	}
}

// TestValidateRefusesWhatTheSpecRefuses: a hand-edited repro that passes
// the scenario's own checks but materializes a spec RunHybrid refuses —
// inter-rack traffic on a one-rack fabric — fails Validate, and -replay
// reports that error instead of reproducing a panic.
func TestValidateRefusesWhatTheSpecRefuses(t *testing.T) {
	sc := Generate(1)
	sc.Pods, sc.ToRCount, sc.AggCount, sc.CoreCount = 1, 1, 1, 1
	sc.Shards, sc.InterRackOnly = 0, true
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "InterRackOnly") {
		t.Fatalf("Validate = %v, want the spec's InterRackOnly refusal", err)
	}
	path, werr := WriteRepro(t.TempDir(), Finding{Seed: sc.Seed, Original: sc, Minimal: sc})
	if werr != nil {
		t.Fatal(werr)
	}
	if reason, rerr := Replay(context.Background(), path, Options{}); rerr == nil || rerr.Error() != err.Error() || reason != "" {
		t.Errorf("Replay = %q, %v; want Validate's error %q", reason, rerr, err)
	}
}

// TestScenarioJSONRoundTrip: a scenario survives serialization exactly —
// the property repro files depend on.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Generate(7)
	buf, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != sc {
		t.Errorf("round trip changed the scenario:\n%+v\n%+v", sc, back)
	}
}

// TestChaosSmoke is the PR-gate soak: 30 fixed seeds through the full
// harness (auditor, pool debug, panic containment) must come back clean.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := Run(context.Background(), Options{Seeds: 30, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("seed %d: %s\nminimal: %+v", f.Seed, firstLine(f.MinimalReason), f.Minimal)
	}
	if rep.AuditChecks == 0 {
		t.Error("no audit sweeps ran across the whole soak")
	}
	if rep.Events == 0 {
		t.Error("no events executed")
	}
}

// TestChaosCatchesAndShrinksSeededBug is the harness's own mutation test:
// plant a one-sided accounting corruption in every scenario and require the
// soak to (a) flag every seed, (b) shrink each finding to a simpler
// still-failing scenario, (c) emit a reproducer that replays.
func TestChaosCatchesAndShrinksSeededBug(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	opts := Options{
		Seeds:        2,
		BaseSeed:     100,
		Workers:      2,
		ShrinkBudget: 30,
		ReproDir:     dir,
		Out:          &out,
		Wrap: func(spec exp.HybridSpec) exp.HybridSpec {
			spec.Hooks = &exp.RunHooks{PostBuild: func(cl *topo.Cluster) {
				cl.ToRs[0].SkewSharedUsedForTest(2048)
			}}
			return spec
		},
	}
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != opts.Seeds {
		t.Fatalf("%d of %d seeded-bug scenarios flagged", len(rep.Findings), opts.Seeds)
	}
	// Every failed seed is reported, in seed order, before shrinking starts.
	log := out.String()
	fail100, fail101 := strings.Index(log, "chaos: seed 100 FAILED:"), strings.Index(log, "chaos: seed 101 FAILED:")
	shrink := strings.Index(log, "chaos: shrinking seed")
	if fail100 < 0 || fail101 < fail100 || shrink < fail101 {
		t.Errorf("want both FAILED lines in seed order before the first shrink, got:\n%s", log)
	}
	if !strings.Contains(log, "chaos: 2 seeds, 2 findings,") {
		t.Errorf("summary line missing or wrong:\n%s", log)
	}
	for _, f := range rep.Findings {
		if !strings.Contains(f.MinimalReason, "sharedUsed") {
			t.Errorf("seed %d: wrong diagnosis: %s", f.Seed, firstLine(f.MinimalReason))
		}
		if f.ShrinkRuns == 0 {
			t.Errorf("seed %d: shrinker never ran", f.Seed)
		}
		if f.Minimal == f.Original {
			t.Errorf("seed %d: shrinker found nothing simpler than %+v", f.Seed, f.Original)
		}
		if err := f.Minimal.Validate(); err != nil {
			t.Errorf("seed %d: minimal scenario invalid: %v", f.Seed, err)
		}
		if f.ReproPath == "" {
			t.Fatalf("seed %d: no reproducer emitted", f.Seed)
		}
		reason, err := Replay(context.Background(), f.ReproPath, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(reason, "sharedUsed") {
			t.Errorf("seed %d: reproducer does not replay: %q", f.Seed, firstLine(reason))
		}
	}
}

// TestShrinkPreservesValidity: every candidate offered for any generated
// scenario must itself be valid — the shrinker never proposes a scenario
// the simulator would reject.
func TestShrinkPreservesValidity(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		sc := Generate(seed)
		for _, cand := range shrinkCandidates(sc) {
			if err := cand.Validate(); err != nil {
				t.Fatalf("seed %d: invalid candidate: %v\n%+v", seed, err, cand)
			}
		}
	}
}
