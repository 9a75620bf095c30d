package l2bm_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestDocSizeCaps pins the documentation budget: DESIGN.md keeps mechanisms,
// invariants and soundness arguments within 60,000 bytes, README.md stays
// within 15,000, and each CHANGES.md entry for PRs 1–18 is one paragraph of
// at most 1,500 characters. Campaign numbers belong in the BENCH_*.json
// snapshots, which the documents cite instead of restating.
func TestDocSizeCaps(t *testing.T) {
	for _, doc := range []struct {
		name string
		max  int64
	}{{"DESIGN.md", 60_000}, {"README.md", 15_000}} {
		fi, err := os.Stat(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d B, cap %d B", doc.name, fi.Size(), doc.max)
		}
	}

	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for i, line := range strings.Split(string(data), "\n") {
		var pr int
		if _, err := fmt.Sscanf(line, "PR %d", &pr); err != nil || pr > 18 {
			continue
		}
		entries++
		if n := utf8.RuneCountInString(line); n > 1500 {
			t.Errorf("CHANGES.md line %d (PR %d) is %d characters, cap 1,500", i+1, pr, n)
		}
	}
	if entries < 16 {
		t.Errorf("found %d CHANGES.md entries for PRs 1–18, want 16", entries)
	}
}
