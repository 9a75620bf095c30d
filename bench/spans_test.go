package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes: self time is a span's duration minus the part of its
// interval its children cover — clipped to the parent, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []spanRec{
		{Name: "rep", Parent: -1, Start: 0, End: 100 * ms},            // 0
		{Name: "point", Parent: 0, Start: 10 * ms, End: 40 * ms},      // 1: 30 inside
		{Name: "point", Parent: 0, Start: 30 * ms, End: 60 * ms},      // 2: overlaps 1 by 10
		{Name: "export", Parent: 0, Start: 90 * ms, End: 120 * ms},    // 3: 20 past the parent's end
		{Name: "col", Parent: 3, Start: 95 * ms, End: 100 * ms},       // 4: grandchild
		{Name: "aborted", Parent: 0, Start: 70 * ms, End: -1},         // 5: never closed
		{Name: "request", Parent: -1, Start: 200 * ms, End: 230 * ms}, // 6: childless root
	}
	rows := selfTimes(spans)
	want := map[string]selfRow{
		// children cover [10,60] and [90,100] of [0,100]
		"rep":     {Name: "rep", Count: 1, Total: 100 * ms, Self: 40 * ms},
		"point":   {Name: "point", Count: 2, Total: 60 * ms, Self: 60 * ms},
		"export":  {Name: "export", Count: 1, Total: 30 * ms, Self: 25 * ms},
		"col":     {Name: "col", Count: 1, Total: 5 * ms, Self: 5 * ms},
		"request": {Name: "request", Count: 1, Total: 30 * ms, Self: 30 * ms},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if r != want[r.Name] {
			t.Errorf("row %q = %+v, want %+v", r.Name, r, want[r.Name])
		}
	}
	if rows[0].Name != "point" {
		t.Errorf("rows are not sorted by self time: first is %q", rows[0].Name)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	sp := tr.start(span{}, "x", 1)
	sp.end() // must not panic
	if sp.tr != nil {
		t.Error("a nil tracer handed out a live span")
	}
}

func TestTracerWritesChromeJSON(t *testing.T) {
	tr := newTracer()
	root := tr.start(span{}, "request", 7)
	child := tr.start(root, "serve.submit", 7)
	child.end()
	root.end()
	open := tr.start(span{}, "never-closed", 8)
	_ = open
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (the open span is dropped): %s", len(events), data)
	}
	if events[1].Name != "serve.submit" || events[1].Ph != "X" || events[1].Tid != 7 || events[1].Args["parent"] != 0 {
		t.Errorf("child event = %+v", events[1])
	}
}
