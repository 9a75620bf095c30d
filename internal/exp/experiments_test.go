package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// tableRows returns the cells of the rendered table whose title starts with
// the given prefix, header row excluded.
func tableRows(t *testing.T, out, title string) [][]string {
	t.Helper()
	_, body, ok := strings.Cut(out, "\n== "+title)
	if !ok {
		t.Fatalf("no table titled %q in:\n%s", title, out)
	}
	body, _, _ = strings.Cut(body, "\n\n")
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n")[2:] {
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

func TestRunFig3aProducesOccupancyTable(t *testing.T) {
	var buf bytes.Buffer
	specs, results, err := NewHarness(0).Run("fig3a", ScaleTiny, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || len(results) != 2 || specs[0].TCPLoad == 0 || specs[1].RDMALoad == 0 {
		t.Fatalf("missing per-protocol results: specs %+v", specs)
	}
	tcpOnly, rdmaOnly := results[0], results[1]
	if len(tcpOnly.TCPSlowdowns) == 0 {
		t.Error("TCP-only run has no TCP flows")
	}
	if len(tcpOnly.RDMASlowdowns) != 0 {
		t.Error("TCP-only run produced RDMA flows")
	}
	if len(rdmaOnly.RDMASlowdowns) == 0 {
		t.Error("RDMA-only run has no RDMA flows")
	}
	out := buf.String()
	for _, want := range []string{"Fig 3(a)", "TCP", "RDMA", "occ_p99_KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	specs, results, err := NewHarness(0).Run("table2", ScaleTiny, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 20 || len(results) != 20 {
		t.Fatalf("%d specs, %d results, want 4 policies x 5 loads", len(specs), len(results))
	}
	rows := tableRows(t, buf.String(), "Table II:")
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(rows))
	}
	for i, row := range rows {
		if len(row) != 6 {
			t.Fatalf("row %v has %d cells, want policy + 5 loads", row, len(row))
		}
		for li := range Table2Loads {
			if got, want := row[1+li], fmt.Sprint(results[i*5+li].PauseFrames); got != want {
				t.Errorf("row %d load %d renders %s, its result has %s pause frames", i, li, got, want)
			}
		}
	}
}

// TestRunTable2ReusesPriorSweep: Table II is the pause-frame column of
// Fig. 7, so on a harness with a store a finished Fig. 7 sweep leaves Table
// II nothing to simulate — every cell is a store hit, no event is added —
// and the table equals one computed from scratch.
func TestRunTable2ReusesPriorSweep(t *testing.T) {
	h := NewHarness(0)
	h.Cache = &ResultCache{}
	_, fig7, err := h.Run("fig7", ScaleTiny, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := TallyResults(fig7).Restored; n != 0 {
		t.Fatalf("Fig. 7 on an empty store restored %d points", n)
	}

	var reused bytes.Buffer
	_, table2, err := h.Run("table2", ScaleTiny, nil, &reused)
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(len(table2Policies) * len(Table2Loads))
	if tl := TallyResults(table2); tl.Restored != cells || tl.Points != cells || tl.Events != 0 {
		t.Errorf("Table II after Fig. 7: %d of %d points restored, %d events simulated; want %d of %d and 0",
			tl.Restored, tl.Points, tl.Events, cells, cells)
	}

	var fresh bytes.Buffer
	if _, _, err := NewHarness(0).Run("table2", ScaleTiny, nil, &fresh); err != nil {
		t.Fatal(err)
	}
	if reused.String() != fresh.String() {
		t.Errorf("Table II from the Fig. 7 store differs from a fresh one:\n--- reused ---\n%s\n--- fresh ---\n%s",
			reused.String(), fresh.String())
	}
}

// TestRunTable2PartialPriorRegression: a store holding only part of the grid
// (what a killed Fig. 7 leaves behind, or a Fig. 7 restricted to some
// policies) is reused cell by cell and only the absent cells are simulated.
// The stored cells are sentinels — pause counts no run produces — so reuse is
// visible in the table.
func TestRunTable2PartialPriorRegression(t *testing.T) {
	cache := &ResultCache{}
	sentinel := func(pol string, li int) uint64 {
		if pol == "DT" {
			return uint64(1000 + li)
		}
		return uint64(1100 + li)
	}
	stored := 0
	for _, cell := range []struct {
		pol   string
		loads int // the first this many of Table2Loads
	}{{"DT", len(Table2Loads)}, {"ABM", 2}} {
		for li := 0; li < cell.loads; li++ {
			raw, err := json.Marshal(&Result{Policy: cell.pol, PauseFrames: sentinel(cell.pol, li)})
			if err != nil {
				t.Fatal(err)
			}
			spec := HybridSpec{Name: "fig7", Policy: cell.pol, Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: Table2Loads[li]}
			if err := cache.Put(spec, raw); err != nil {
				t.Fatal(err)
			}
			stored++
		}
	}

	h := NewHarness(0)
	h.Cache = cache
	var buf bytes.Buffer
	_, results, err := h.Run("table2", ScaleTiny, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, buf.String(), "Table II:")
	// Table II's row order is ABM, DT, DT2, L2BM.
	for i, pol := range []string{"ABM", "DT", "DT2", "L2BM"} {
		if rows[i][0] != pol {
			t.Fatalf("row %d policy = %q, want %q", i, rows[i][0], pol)
		}
	}
	for li := range Table2Loads {
		if got, want := rows[1][1+li], fmt.Sprint(sentinel("DT", li)); got != want {
			t.Errorf("DT load %d: cell = %q, want sentinel %s (store not reused)", li, got, want)
		}
	}
	for li := 0; li < 2; li++ {
		if got, want := rows[0][1+li], fmt.Sprint(sentinel("ABM", li)); got != want {
			t.Errorf("ABM load %d: cell = %q, want sentinel %s", li, got, want)
		}
	}
	if got := rows[0][3]; got == fmt.Sprint(sentinel("ABM", 2)) {
		t.Errorf("ABM load 2 shows a sentinel that was never stored: %q", got)
	}
	if tl := TallyResults(results); tl.Restored != uint64(stored) || tl.Events == 0 {
		t.Errorf("restored %d points (stored %d), simulated %d events; want the stored ones restored and the rest run",
			tl.Restored, stored, tl.Events)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.AddRow("1", "2")
	tab.AddRow("3", "4")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	csv := tab.CSV()
	if csv != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestFloatFormatting(t *testing.T) {
	if f2(1.234) != "1.23" || f3(0.1234) != "0.123" {
		t.Error("float formatting wrong")
	}
	nan := 0.0
	nan /= nan
	if f2(nan) != "-" || f3(nan) != "-" {
		t.Error("NaN should render as -")
	}
}

func TestIncastFanoutClampedOnTinyTopology(t *testing.T) {
	// Tiny scale has 4 RDMA hosts; a fanout of 15 must clamp, not error.
	res, err := RunHybrid(HybridSpec{
		Name: "clamp", Policy: "DT", Scale: ScaleTiny,
		TCPLoad: 0.3,
		Incast:  &IncastSpec{Fanout: 15, RequestBytes: 300_000, QueryRate: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QueryDelays) == 0 {
		t.Error("no queries completed after clamping")
	}
}
