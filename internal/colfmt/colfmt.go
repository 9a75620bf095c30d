// Package colfmt is the hand-rolled columnar binary container for trace and
// metrics telemetry: the export path sized for hyperscale runs, where the
// row-wise CSVs repeat every switch name and re-render every timestamp in
// decimal. A file holds named channels (one per telemetry stream), each a
// set of typed columns stored back-to-back as independently decodable
// blocks, followed by a JSON footer carrying the schema and byte offsets —
// so a reader can open one column of one channel without touching the rest.
//
// Layout:
//
//	magic "L2CF"                                  (4 bytes)
//	column block … column block                   (back-to-back, no padding)
//	footer JSON {"version":1,"channels":[…]}      (schema + offsets)
//	footer length                                 (uint32 little-endian)
//	tail magic "L2CF"                             (4 bytes)
//
// The trailing length + magic let a reader locate the footer from the end
// of the file without scanning, the classic self-describing-container
// trick. Column encodings:
//
//	time:  per-row delta from the previous row, zigzag-varint (first row
//	       absolute). Timestamps are near-sorted, so deltas are tiny.
//	int:   zigzag-varint per row (signed, small-magnitude friendly).
//	uint:  varint per row.
//	float: IEEE 754 bits, 8 bytes little-endian per row (exactness over
//	       compression — these carry computed weights).
//	str:   dictionary: varint entry count, then each entry as varint
//	       length + bytes (in first-appearance order), then one varint
//	       dictionary index per row. Switch-name columns have a handful of
//	       distinct values over millions of rows.
//
// Writing is deterministic: equal inputs produce byte-identical files
// (dictionary order is first appearance, footer JSON field order is fixed
// by the struct), so colfmt artifacts diff as cleanly as the CSVs they
// replace.
package colfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Version is the container version baked into the footer; readers refuse
// files from a different major layout.
const Version = 1

var magic = [4]byte{'L', '2', 'C', 'F'}

// Column kinds as written to the footer schema.
const (
	KindTime  = "time"
	KindInt   = "int"
	KindUint  = "uint"
	KindFloat = "float"
	KindStr   = "str"
)

// File is a columnar file under construction. Build channels with Channel,
// then serialize once with WriteTo. The zero value is an empty file.
type File struct {
	channels []*Channel
}

// NewFile returns an empty file builder.
func NewFile() *File { return &File{} }

// Channel appends a new named channel and returns it for column chaining:
//
//	f.Channel("trace/occupancy").
//	    Time("at_ps", ats).Str("switch", names).Int("resident", res)
//
// Channel names must be unique per file; WriteTo rejects duplicates.
func (f *File) Channel(name string) *Channel {
	c := &Channel{name: name, rows: -1}
	f.channels = append(f.channels, c)
	return c
}

// Channel is one telemetry stream: a row count and a set of equally long
// typed columns.
type Channel struct {
	name string
	rows int // -1 until the first column fixes it
	cols []col
	err  error // first column-length mismatch, surfaced by WriteTo
}

type col struct {
	name string
	kind string
	data []byte
}

func (c *Channel) add(name, kind string, rows int, data []byte) *Channel {
	if c.rows == -1 {
		c.rows = rows
	} else if rows != c.rows && c.err == nil {
		c.err = fmt.Errorf("colfmt: channel %s: column %s has %d rows, want %d",
			c.name, name, rows, c.rows)
	}
	c.cols = append(c.cols, col{name: name, kind: kind, data: data})
	return c
}

// Time appends a delta+zigzag-varint encoded timestamp column.
func (c *Channel) Time(name string, vals []int64) *Channel {
	size, prev := 0, int64(0)
	for _, v := range vals {
		size += uvarintLen(zigzag(v - prev))
		prev = v
	}
	buf := make([]byte, 0, size)
	prev = 0
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, zigzag(v-prev))
		prev = v
	}
	return c.add(name, KindTime, len(vals), buf)
}

// Int appends a zigzag-varint encoded signed column.
func (c *Channel) Int(name string, vals []int64) *Channel {
	size := 0
	for _, v := range vals {
		size += uvarintLen(zigzag(v))
	}
	buf := make([]byte, 0, size)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, zigzag(v))
	}
	return c.add(name, KindInt, len(vals), buf)
}

// Uint appends a varint encoded unsigned column.
func (c *Channel) Uint(name string, vals []uint64) *Channel {
	size := 0
	for _, v := range vals {
		size += uvarintLen(v)
	}
	buf := make([]byte, 0, size)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return c.add(name, KindUint, len(vals), buf)
}

// Float appends a fixed-width 8-byte little-endian IEEE 754 column.
func (c *Channel) Float(name string, vals []float64) *Channel {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return c.add(name, KindFloat, len(vals), buf)
}

// Str appends a dictionary-encoded string column. A first pass builds the
// dictionary and sizes the block; a second looks each row's index up again.
func (c *Channel) Str(name string, vals []string) *Channel {
	var dict []string
	idx := make(map[string]uint64)
	size := 0
	for _, v := range vals {
		j, ok := idx[v]
		if !ok {
			j = uint64(len(dict))
			idx[v] = j
			dict = append(dict, v)
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		size += uvarintLen(j)
	}
	buf := make([]byte, 0, uvarintLen(uint64(len(dict)))+size)
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, idx[v])
	}
	return c.add(name, KindStr, len(vals), buf)
}

// uvarintLen is the byte length of v's varint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Footer schema types; field order here fixes the footer's JSON layout.
type footer struct {
	Version  int             `json:"version"`
	Channels []footerChannel `json:"channels"`
}

type footerChannel struct {
	Name    string      `json:"name"`
	Rows    int         `json:"rows"`
	Columns []footerCol `json:"columns"`
}

type footerCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// WriteTo serializes the file: magic, every channel's column blocks
// back-to-back, the JSON footer, its length and the tail magic. It
// implements io.WriterTo.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	if _, err := cw.Write(magic[:]); err != nil {
		return cw.n, err
	}
	seen := make(map[string]bool, len(f.channels))
	ft := footer{Version: Version}
	for _, c := range f.channels {
		if c.err != nil {
			return cw.n, c.err
		}
		if seen[c.name] {
			return cw.n, fmt.Errorf("colfmt: duplicate channel %s", c.name)
		}
		seen[c.name] = true
		rows := c.rows
		if rows < 0 {
			rows = 0
		}
		fc := footerChannel{Name: c.name, Rows: rows}
		for _, col := range c.cols {
			fc.Columns = append(fc.Columns, footerCol{
				Name: col.name, Kind: col.kind, Off: cw.n, Len: int64(len(col.data)),
			})
			if _, err := cw.Write(col.data); err != nil {
				return cw.n, err
			}
		}
		ft.Channels = append(ft.Channels, fc)
	}
	fj, err := json.Marshal(ft)
	if err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(fj); err != nil {
		return cw.n, err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(fj)))
	copy(tail[4:], magic[:])
	if _, err := cw.Write(tail[:]); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Decoded is a parsed columnar file ready for column reads.
type Decoded struct {
	data     []byte
	channels []footerChannel
	byName   map[string]*footerChannel
}

// Decode parses a serialized file. The returned Decoded aliases data;
// column reads decode lazily from it. The footer is outside input and is
// believed only as far as the file's own size bears it out: every block must
// lie inside the data region, and a channel's row count must fit its blocks
// (a varint or dictionary index is at least one byte a row, a float exactly
// eight) — so no read can index past a block or allocate beyond a small
// multiple of len(data), whatever the footer claims.
func Decode(data []byte) (*Decoded, error) {
	if len(data) < len(magic)*2+4 {
		return nil, fmt.Errorf("colfmt: file too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("colfmt: bad leading magic %q", data[:4])
	}
	if [4]byte(data[len(data)-4:]) != magic {
		return nil, fmt.Errorf("colfmt: bad tail magic %q", data[len(data)-4:])
	}
	flen := int64(binary.LittleEndian.Uint32(data[len(data)-8 : len(data)-4]))
	fend := int64(len(data)) - 8
	fstart := fend - flen
	if fstart < int64(len(magic)) {
		return nil, fmt.Errorf("colfmt: footer length %d exceeds file", flen)
	}
	var ft footer
	if err := json.Unmarshal(data[fstart:fend], &ft); err != nil {
		return nil, fmt.Errorf("colfmt: footer: %w", err)
	}
	if ft.Version != Version {
		return nil, fmt.Errorf("colfmt: file version %d, reader speaks %d", ft.Version, Version)
	}
	d := &Decoded{data: data, channels: ft.Channels, byName: make(map[string]*footerChannel, len(ft.Channels))}
	for i := range d.channels {
		c := &d.channels[i]
		if c.Rows < 0 {
			return nil, fmt.Errorf("colfmt: channel %s claims %d rows", c.Name, c.Rows)
		}
		for _, col := range c.Columns {
			if col.Len < 0 || col.Off < int64(len(magic)) || col.Off > fstart-col.Len {
				return nil, fmt.Errorf("colfmt: channel %s column %s block (off %d, len %d) escapes the data region",
					c.Name, col.Name, col.Off, col.Len)
			}
			fits := int64(c.Rows) <= col.Len
			if col.Kind == KindFloat {
				fits = col.Len%8 == 0 && int64(c.Rows) == col.Len/8
			}
			if !fits {
				return nil, fmt.Errorf("colfmt: channel %s column %s: %d bytes cannot hold %d %s rows",
					c.Name, col.Name, col.Len, c.Rows, col.Kind)
			}
		}
		d.byName[c.Name] = c
	}
	return d, nil
}

// Channels lists the channel names in file order.
func (d *Decoded) Channels() []string {
	names := make([]string, len(d.channels))
	for i, c := range d.channels {
		names[i] = c.Name
	}
	return names
}

// Channel returns the named channel's reader, or nil when absent.
func (d *Decoded) Channel(name string) *ChannelReader {
	c, ok := d.byName[name]
	if !ok {
		return nil
	}
	return &ChannelReader{d: d, c: c}
}

// ChannelReader reads one channel's columns.
type ChannelReader struct {
	d *Decoded
	c *footerChannel
}

// Rows returns the channel's row count.
func (r *ChannelReader) Rows() int { return r.c.Rows }

// Columns lists the channel's column names in file order.
func (r *ChannelReader) Columns() []string {
	names := make([]string, len(r.c.Columns))
	for i, col := range r.c.Columns {
		names[i] = col.Name
	}
	return names
}

// Kind returns the named column's kind (KindTime … KindStr, or whatever the
// footer says), which names the typed read that decodes it; "" when the
// channel has no such column.
func (r *ChannelReader) Kind(name string) string {
	for _, col := range r.c.Columns {
		if col.Name == name {
			return col.Kind
		}
	}
	return ""
}

func (r *ChannelReader) find(name string, kinds ...string) (footerCol, error) {
	for _, col := range r.c.Columns {
		if col.Name != name {
			continue
		}
		for _, k := range kinds {
			if col.Kind == k {
				return col, nil
			}
		}
		return footerCol{}, fmt.Errorf("colfmt: channel %s column %s is kind %s, want %v",
			r.c.Name, name, col.Kind, kinds)
	}
	return footerCol{}, fmt.Errorf("colfmt: channel %s has no column %s", r.c.Name, name)
}

func (r *ChannelReader) block(col footerCol) []byte {
	return r.d.data[col.Off : col.Off+col.Len]
}

// Ints decodes a time or int column as signed values.
func (r *ChannelReader) Ints(name string) ([]int64, error) {
	col, err := r.find(name, KindTime, KindInt)
	if err != nil {
		return nil, err
	}
	buf := r.block(col)
	out := make([]int64, r.c.Rows)
	var prev int64
	for i := range out {
		u, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("colfmt: channel %s column %s: truncated varint at row %d", r.c.Name, name, i)
		}
		buf = buf[n:]
		v := unzigzag(u)
		if col.Kind == KindTime {
			v += prev
			prev = v
		}
		out[i] = v
	}
	return out, nil
}

// Uints decodes an unsigned column.
func (r *ChannelReader) Uints(name string) ([]uint64, error) {
	col, err := r.find(name, KindUint)
	if err != nil {
		return nil, err
	}
	buf := r.block(col)
	out := make([]uint64, r.c.Rows)
	for i := range out {
		u, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("colfmt: channel %s column %s: truncated varint at row %d", r.c.Name, name, i)
		}
		buf = buf[n:]
		out[i] = u
	}
	return out, nil
}

// Floats decodes a float column.
func (r *ChannelReader) Floats(name string) ([]float64, error) {
	col, err := r.find(name, KindFloat)
	if err != nil {
		return nil, err
	}
	buf := r.block(col) // exactly 8 bytes a row: Decode checked
	out := make([]float64, r.c.Rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// Strs decodes a dictionary-encoded string column.
func (r *ChannelReader) Strs(name string) ([]string, error) {
	col, err := r.find(name, KindStr)
	if err != nil {
		return nil, err
	}
	buf := r.block(col)
	nd, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("colfmt: channel %s column %s: truncated dictionary count", r.c.Name, name)
	}
	buf = buf[n:]
	if nd > uint64(col.Len) {
		return nil, fmt.Errorf("colfmt: channel %s column %s: dictionary count %d exceeds block", r.c.Name, name, nd)
	}
	dict := make([]string, nd)
	for i := range dict {
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return nil, fmt.Errorf("colfmt: channel %s column %s: truncated dictionary entry %d", r.c.Name, name, i)
		}
		buf = buf[n:]
		dict[i] = string(buf[:l])
		buf = buf[l:]
	}
	out := make([]string, r.c.Rows)
	for i := range out {
		j, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("colfmt: channel %s column %s: truncated index at row %d", r.c.Name, name, i)
		}
		buf = buf[n:]
		if j >= nd {
			return nil, fmt.Errorf("colfmt: channel %s column %s: row %d index %d out of dictionary (%d entries)",
				r.c.Name, name, i, j, nd)
		}
		out[i] = dict[j]
	}
	return out, nil
}

// zigzag maps signed to unsigned so small magnitudes of either sign stay
// short under varint.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
