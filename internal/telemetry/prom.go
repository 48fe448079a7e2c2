package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"carf/internal/metrics"
)

// WritePrometheus renders readings in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative le-bucketed series with _sum and _count.
// Names are prefixed with namespace and sanitized (dots and dashes
// become underscores), so "sched.queue_wait_seconds" under namespace
// "carf" exposes as carf_sched_queue_wait_seconds. Readings are
// cumulative values read under their owners' locks (Scheduler.Readings,
// Store.Readings), so a scrape is safe at any time.
func WritePrometheus(w io.Writer, namespace string, readings []metrics.Reading) error {
	for _, rd := range readings {
		name := promName(namespace, rd.Name)
		var err error
		switch rd.Kind {
		case metrics.ReadCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(rd.Value))
		case metrics.ReadGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(rd.Value))
		case metrics.ReadHistogram:
			err = promHistogram(w, name, rd)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promHistogram renders one histogram: Prometheus buckets are
// cumulative (each le bucket counts all observations at or below its
// bound), where metrics.SyncHistogram buckets are disjoint — the running
// sum converts.
func promHistogram(w io.Writer, name string, rd metrics.Reading) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, bound := range rd.Bounds {
		cum += rd.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, rd.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(rd.Sum), name, rd.Count)
	return err
}

// promName prefixes and sanitizes a series name into the Prometheus
// metric-name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(namespace, name string) string {
	var b strings.Builder
	if namespace != "" {
		b.WriteString(namespace)
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a value the way Prometheus parsers expect
// (shortest round-trip representation; infinities spelled +Inf/-Inf).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
