package colfmt_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"l2bm/internal/colfmt"
	"l2bm/internal/exp"
	"l2bm/internal/sim"
)

// withFooter builds a file around a hand-written footer: magic, 88 zero
// bytes of column data, the footer, its length, the tail magic.
func withFooter(footer string) []byte {
	b := append([]byte("L2CF"), make([]byte, 88)...)
	b = append(b, footer...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(footer)))
	return append(b, "L2CF"...)
}

// hostileFooters are well-framed files whose footers lie about the data
// region. Each used to get past Decode and kill the first typed read: a
// makeslice panic, an 8 TiB allocation the runtime cannot recover from, a
// slice-bounds panic, and an offset whose sum with the length overflowed the
// bounds check.
var hostileFooters = map[string]string{
	"negative rows":        `{"version":1,"channels":[{"name":"c","rows":-1,"columns":[{"name":"x","kind":"int","off":4,"len":8}]}]}`,
	"rows beyond the file": `{"version":1,"channels":[{"name":"c","rows":1099511627776,"columns":[{"name":"x","kind":"int","off":4,"len":8}]}]}`,
	"negative length":      `{"version":1,"channels":[{"name":"c","rows":1,"columns":[{"name":"x","kind":"str","off":10,"len":-5}]}]}`,
	"offset overflow":      `{"version":1,"channels":[{"name":"c","rows":1,"columns":[{"name":"x","kind":"uint","off":9223372036854775800,"len":100}]}]}`,
	// 8*rows wraps to 0 == len: the float length check itself overflowed.
	"float rows overflow": `{"version":1,"channels":[{"name":"c","rows":2305843009213693952,"columns":[{"name":"x","kind":"float","off":4,"len":0}]}]}`,
}

// readEverything drives every typed read over every column; whichever does
// not match the column's kind errors, the one that does decodes the block.
func readEverything(d *colfmt.Decoded) {
	for _, name := range d.Channels() {
		ch := d.Channel(name)
		for _, col := range ch.Columns() {
			ch.Ints(col)
			ch.Uints(col)
			ch.Floats(col)
			ch.Strs(col)
		}
	}
}

// TestHostileFooter: the footer is outside input; what it claims beyond the
// file's own bytes is refused at Decode, before any read can act on it.
func TestHostileFooter(t *testing.T) {
	for name, footer := range hostileFooters {
		if _, err := colfmt.Decode(withFooter(footer)); err == nil {
			t.Errorf("%s: Decode accepted the file", name)
		}
	}
	// The frame itself is sound: the same bytes around an honest footer decode.
	honest := `{"version":1,"channels":[{"name":"c","rows":8,"columns":[{"name":"x","kind":"int","off":4,"len":8}]}]}`
	d, err := colfmt.Decode(withFooter(honest))
	if err != nil {
		t.Fatalf("honest footer refused: %v", err)
	}
	if v, err := d.Channel("c").Ints("x"); err != nil || len(v) != 8 {
		t.Errorf("honest footer: Ints = %v, %v", v, err)
	}
}

// realFile is the columnar export of a traced tiny run: every channel the
// recorder and the metrics series write, every column kind.
func realFile(tb testing.TB) []byte {
	tb.Helper()
	res, err := exp.RunHybrid(exp.HybridSpec{
		Name: "colfmt-fuzz", Policy: "L2BM", Scale: exp.ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8,
		Incast:         &exp.IncastSpec{Fanout: 5, RequestBytes: 1 << 20, QueryRate: 752},
		WindowOverride: 360 * sim.Microsecond,
		Trace:          &exp.TraceSpec{SampleEvery: 50 * sim.Microsecond, Capacity: 64},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCol(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode: no input may panic Decode or any typed read, or make them
// allocate beyond the input's own size class (the fuzzer's memory limit is
// the judge). Seeds: a real WriteCol file, its truncations, and the hostile
// footers, so plain `go test` replays them all.
func FuzzDecode(f *testing.F) {
	real := realFile(f)
	f.Add(real)
	for cut := 1; cut < len(real); cut += len(real)/16 + 1 {
		f.Add(real[:cut])
		f.Add(real[cut:])
	}
	for _, footer := range hostileFooters {
		f.Add(withFooter(footer))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := colfmt.Decode(data)
		if err != nil {
			return
		}
		readEverything(d)
	})
}
