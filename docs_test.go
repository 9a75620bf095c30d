package l2bm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
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

// benchCitation matches a cited snapshot, `BENCH_<name>.json`, and the
// `key` the text names right after it, if any.
var benchCitation = regexp.MustCompile("`(BENCH_[\\w-]+\\.json)`(?:,?\\s+key\\s+`([^`]+)`)?")

// TestDocCitationsResolve: a machine-dependent number is cited as a
// BENCH_*.json file and key instead of restated, so every file README,
// DESIGN and EXPERIMENTS cite must exist and every key they name must be a
// JSON key in it.
func TestDocCitationsResolve(t *testing.T) {
	files, keys := 0, 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchCitation.FindAllStringSubmatch(string(text), -1) {
			files++
			data, err := os.ReadFile(m[1])
			if err != nil {
				t.Errorf("%s cites %s: %v", doc, m[1], err)
				continue
			}
			if m[2] == "" {
				continue
			}
			keys++
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("%s cites %s: %v", doc, m[1], err)
			} else if !hasKey(v, m[2]) {
				t.Errorf("%s cites key %q of %s, which has no such key", doc, m[2], m[1])
			}
		}
	}
	if files == 0 || keys == 0 {
		t.Errorf("found %d cited files and %d cited keys; the pattern no longer matches the docs", files, keys)
	}
}

// hasKey reports whether key names an object member anywhere in v.
func hasKey(v any, key string) bool {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if k == key || hasKey(child, key) {
				return true
			}
		}
	case []any:
		for _, child := range v {
			if hasKey(child, key) {
				return true
			}
		}
	}
	return false
}
