// Command l2bmtrace reads the columnar trace files l2bmexp -trace and
// l2bmd /trace write (internal/colfmt).
//
// Usage:
//
//	l2bmtrace FILE.col            list the file's channels: name, rows, columns
//	l2bmtrace FILE.col CHANNEL    print that channel as CSV, one line per row
//
// It knows the container, not the contents: channel and column names, kinds
// and row counts all come from the file's own footer, so a channel a later
// recorder adds is readable the day it is written. Integers print in
// decimal, floats in the shortest form that round-trips.
package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"l2bm/internal/colfmt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "l2bmtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: l2bmtrace FILE.col [CHANNEL]")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	d, err := colfmt.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if len(args) == 1 {
		return list(d, w)
	}
	ch := d.Channel(args[1])
	if ch == nil {
		return fmt.Errorf("%s has no channel %q (have %s)", args[0], args[1], strings.Join(d.Channels(), " "))
	}
	return dump(ch, w)
}

// list prints one line per channel: name, row count, name:kind per column.
func list(d *colfmt.Decoded, w io.Writer) error {
	for _, name := range d.Channels() {
		ch := d.Channel(name)
		cols := ch.Columns()
		for i, col := range cols {
			cols[i] = col + ":" + ch.Kind(col)
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\t%s\n", name, ch.Rows(), strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// dump prints the channel as CSV under the file's own column names.
func dump(ch *colfmt.ChannelReader, w io.Writer) error {
	names := ch.Columns()
	cells := make([]func(row int) string, len(names))
	for i, name := range names {
		var err error
		if cells[i], err = column(ch, name); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	cw.Write(names)
	record := make([]string, len(names))
	for row := 0; row < ch.Rows(); row++ {
		for i, cell := range cells {
			record[i] = cell(row)
		}
		cw.Write(record)
	}
	cw.Flush()
	return cw.Error() // the first Write or Flush error, if any
}

// column decodes one column through the typed read its kind names and
// returns its per-row formatter.
func column(ch *colfmt.ChannelReader, name string) (func(row int) string, error) {
	switch kind := ch.Kind(name); kind {
	case colfmt.KindTime, colfmt.KindInt:
		v, err := ch.Ints(name)
		return func(row int) string { return strconv.FormatInt(v[row], 10) }, err
	case colfmt.KindUint:
		v, err := ch.Uints(name)
		return func(row int) string { return strconv.FormatUint(v[row], 10) }, err
	case colfmt.KindFloat:
		v, err := ch.Floats(name)
		return func(row int) string { return strconv.FormatFloat(v[row], 'g', -1, 64) }, err
	case colfmt.KindStr:
		v, err := ch.Strs(name)
		return func(row int) string { return v[row] }, err
	default:
		return nil, fmt.Errorf("column %q has kind %q, which this reader does not know", name, kind)
	}
}
