package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"l2bm/internal/exp"
	"l2bm/internal/sim"
	"l2bm/internal/trace"
)

// goldenFile writes the columnar export of the traced tiny incast point whose
// -occupancy.csv and -events.csv the parent commit's CSV exporters produced
// (testdata/parent-*.csv, captured before internal/trace/export.go was
// deleted).
func goldenFile(t *testing.T) string {
	t.Helper()
	res, err := exp.RunHybrid(exp.HybridSpec{
		Name: "golden", Policy: "L2BM", Scale: exp.ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8,
		Incast:         &exp.IncastSpec{Fanout: 5, RequestBytes: 1 << 20, QueryRate: 752},
		WindowOverride: 360 * sim.Microsecond,
		DrainOverride:  300 * sim.Microsecond,
		Trace:          &exp.TraceSpec{SampleEvery: 50 * sim.Microsecond, Capacity: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCol(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.col")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDumpMatchesParentCSV: the schema-free dump reproduces, byte for byte,
// the two CSV files the deleted per-channel exporters wrote for the same run
// — header, column order, integer formatting and all.
func TestDumpMatchesParentCSV(t *testing.T) {
	path := goldenFile(t)

	var listing bytes.Buffer
	if err := run([]string{path}, &listing); err != nil {
		t.Fatal(err)
	}
	channels := strings.Split(strings.TrimSpace(listing.String()), "\n")
	if len(channels) != 10 {
		t.Fatalf("listing has %d channels, want the recorder's 5 and the metrics series' 5:\n%s", len(channels), listing.String())
	}
	for _, line := range channels {
		// name, rows, columns — and the channel dumps as rows+1 CSV lines.
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			t.Fatalf("listing line %q is not name<TAB>rows<TAB>columns", line)
		}
		var dump bytes.Buffer
		if err := run([]string{path, fields[0]}, &dump); err != nil {
			t.Fatalf("%s: %v", fields[0], err)
		}
		rows, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("listing line %q: %v", line, err)
		}
		if got := strings.Count(dump.String(), "\n"); got != 1+rows {
			t.Errorf("%s: dump has %d lines, listing promises a header and %d rows", fields[0], got, rows)
		}
	}

	for channel, golden := range map[string]string{
		trace.ColOccupancy: "testdata/parent-occupancy.csv",
		trace.ColEvents:    "testdata/parent-events.csv",
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run([]string{path, channel}, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("l2bmtrace %s differs from %s:\n--- got ---\n%.600s\n--- want ---\n%.600s", channel, golden, got.Bytes(), want)
		}
	}
}

// TestRefusesBadInput: every way the arguments or the file can be wrong is a
// one-line error (main prints it and exits 1), never a panic and never
// partial output — including the footers that used to take the decoder down.
func TestRefusesBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	withFooter := func(footer string) []byte {
		b := append([]byte("L2CF"), make([]byte, 88)...)
		b = append(b, footer...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(footer)))
		return append(b, "L2CF"...)
	}
	good, err := os.ReadFile(goldenFile(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"no arguments":       {},
		"too many arguments": {write("ok.col", good), "a", "b"},
		"missing file":       {filepath.Join(dir, "absent.col")},
		"unknown channel":    {write("ok2.col", good), "no/such/channel"},
		"not a col file":     {write("text.col", []byte("at_ps,switch\n1,tor0\n"))},
		"truncated":          {write("cut.col", good[:len(good)/2])},
		"negative rows": {write("h1.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":-1,"columns":[{"name":"x","kind":"int","off":4,"len":8}]}]}`)), "c"},
		"rows beyond the file": {write("h2.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":1099511627776,"columns":[{"name":"x","kind":"int","off":4,"len":8}]}]}`)), "c"},
		"negative length": {write("h3.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":1,"columns":[{"name":"x","kind":"str","off":10,"len":-5}]}]}`)), "c"},
		"offset overflow": {write("h4.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":1,"columns":[{"name":"x","kind":"uint","off":9223372036854775800,"len":100}]}]}`)), "c"},
		"unknown kind": {write("h5.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":1,"columns":[{"name":"x","kind":"bits","off":4,"len":8}]}]}`)), "c"},
		"corrupt block": {write("h6.col", withFooter(
			`{"version":1,"channels":[{"name":"c","rows":2,"columns":[{"name":"x","kind":"str","off":4,"len":8}]}]}`)), "c"},
	}
	for name, args := range cases {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("%s: run%q succeeded", name, args)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not one line: %q", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: failed run still wrote output:\n%s", name, out.String())
		}
	}
}
