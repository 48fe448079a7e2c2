package main

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"carf"
	"carf/internal/store"
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

// TestStoreLineLeases: the trailer reports leases won and the time spent
// waiting on peers, not the failed claims each 25 ms poll counts.
func TestStoreLineLeases(t *testing.T) {
	ss := store.Stats{Mode: "disk", DiskBlobs: 641, LeasesAcquired: 565, LeaseLosses: 12090}
	want := "store: disk; 641 blobs, 0 disk hits, 0 quarantined, leases 565 won, 3.14s waiting on peers"
	if got := storeLine(ss, 3.14159); got != want {
		t.Errorf("storeLine = %q, want %q", got, want)
	}
	if got := storeLine(store.Stats{Mode: "disk"}, 0); strings.Contains(got, "leases") {
		t.Errorf("storeLine without lease activity = %q, want no lease clause", got)
	}
}
