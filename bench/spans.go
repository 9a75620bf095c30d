package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It
// lives entirely in this package (spans inside internal/ are a later issue),
// keeps everything in memory and is flushed once at exit. A nil *tracer is
// the tracing-off state: every method is a no-op, so the measured pass pays
// one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one closed or open span. Parent is an index into tracer.spans
// (-1 for a root); ID groups the spans of one op or request.
type spanRec struct {
	Name   string
	ID     int64
	Parent int
	Start  time.Duration
	End    time.Duration
}

// span is the handle a call site holds between start and end.
type span struct {
	tr  *tracer
	idx int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (the zero span makes a root).
func (t *tracer) start(parent span, name string, id int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := -1
	if parent.tr != nil {
		p = parent.idx
	}
	t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: p, Start: time.Since(t.t0), End: -1})
	return span{tr: t, idx: len(t.spans) - 1}
}

// end closes the span.
func (s span) end() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].End = time.Since(s.tr.t0)
	s.tr.mu.Unlock()
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds spans by name. A span's self time is its duration minus
// the part of its interval that its child spans cover (children are clipped
// to the parent and overlapping children are counted once).
func selfTimes(spans []spanRec) []selfRow {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*selfRow)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: the run aborted inside it
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < cursor {
				from = cursor
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += s.End - s.Start - covered
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

func printSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome flushes the recorded spans to path as Chrome trace-event JSON.
// Spans of one op or request share a tid, so each renders as its own lane.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.ID,
			Args: map[string]int64{"span": int64(i), "parent": int64(s.Parent), "id": s.ID},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(events)
	if err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
