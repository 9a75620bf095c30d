package workload

import (
	"strings"
	"testing"
)

// replica builds a synthetic Incast view: one generator's query sequence, as
// the sharded runner sees it.
func replica(qs ...*Query) *Incast {
	return &Incast{queries: qs}
}

// TestIncastReplicasOutOfLockstep: replicas that disagree on the query
// sequence indicate a lost-lockstep bug and must be reported, naming the
// query, rather than let one replica's view stand for wrong latencies.
func TestIncastReplicasOutOfLockstep(t *testing.T) {
	a := replica(&Query{ID: 0, Target: 1, Issued: 10}, &Query{ID: 1, Target: 3, Issued: 20})
	if err := a.InLockstep(replica(&Query{ID: 0, Target: 1, Issued: 10}, &Query{ID: 1, Target: 3, Issued: 20})); err != nil {
		t.Errorf("identical replicas: %v", err)
	}
	for name, b := range map[string]*Incast{
		"target": replica(&Query{ID: 0, Target: 1, Issued: 10}, &Query{ID: 1, Target: 2, Issued: 20}),
		"issued": replica(&Query{ID: 0, Target: 1, Issued: 10}, &Query{ID: 1, Target: 3, Issued: 21}),
		"id":     replica(&Query{ID: 0, Target: 1, Issued: 10}, &Query{ID: 2, Target: 3, Issued: 20}),
	} {
		if err := a.InLockstep(b); err == nil || !strings.Contains(err.Error(), "query 1") {
			t.Errorf("%s differs: error %v, want one naming query 1", name, err)
		}
	}
	if err := a.InLockstep(replica(&Query{ID: 0, Target: 1, Issued: 10})); err == nil {
		t.Error("replicas with different query counts reported in lockstep")
	}
}
