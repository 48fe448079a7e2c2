package metrics

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// formatValue renders a float compactly: integral values without a
// fraction, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSONL exports the time series as JSON lines: one object per
// sample with a leading "cycle" field and one field per series, in
// Names order.
func WriteJSONL(w io.Writer, ts TimeSeries) error {
	bw := bufio.NewWriter(w)
	names := make([]string, len(ts.Names))
	for i, n := range ts.Names {
		names[i] = strconv.Quote(n)
	}
	for _, sm := range ts.Samples {
		bw.WriteString(`{"cycle":`)
		bw.WriteString(strconv.FormatUint(sm.Cycle, 10))
		for i, v := range sm.Values {
			bw.WriteByte(',')
			bw.WriteString(names[i])
			bw.WriteByte(':')
			bw.WriteString(formatValue(v))
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV exports the time series as CSV: a header row ("cycle" plus
// the series names) followed by one row per sample.
func WriteCSV(w io.Writer, ts TimeSeries) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for _, n := range ts.Names {
		bw.WriteByte(',')
		bw.WriteString(csvEscape(n))
	}
	bw.WriteByte('\n')
	for _, sm := range ts.Samples {
		bw.WriteString(strconv.FormatUint(sm.Cycle, 10))
		for _, v := range sm.Values {
			bw.WriteByte(',')
			bw.WriteString(formatValue(v))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Format names a metrics export encoding.
type Format uint8

const (
	FormatJSONL Format = iota
	FormatCSV
)

// FormatForPath picks an export format from a file extension: .jsonl
// and .json map to JSON lines, .csv to CSV. Anything else is an error
// (callers surface it) rather than a silent JSONL fallback.
func FormatForPath(path string) (Format, error) {
	ext := strings.ToLower(filepath.Ext(path))
	switch ext {
	case ".jsonl", ".json":
		return FormatJSONL, nil
	case ".csv":
		return FormatCSV, nil
	default:
		return FormatJSONL, fmt.Errorf("metrics: cannot infer export format for %q (extension %q; known: .jsonl, .json, .csv)", path, ext)
	}
}

// Write exports ts in the given format.
func Write(w io.Writer, ts TimeSeries, f Format) error {
	switch f {
	case FormatCSV:
		return WriteCSV(w, ts)
	case FormatJSONL:
		return WriteJSONL(w, ts)
	default:
		return fmt.Errorf("metrics: unknown format %d", f)
	}
}
