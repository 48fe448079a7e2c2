package main

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"carf"
)

// TestProgressLoggerETAMillis: a short run's ETA is logged to the
// millisecond, not rounded away to 0s.
func TestProgressLoggerETAMillis(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	progressLogger(logger, "table2")(carf.Progress{Label: "sim/crc64/baseline", Insts: 6403, Pct: 0.28, ETASeconds: 0.04})
	if line := buf.String(); !strings.Contains(line, "eta=40ms") {
		t.Fatalf("log line %q lacks eta=40ms", line)
	}
}
