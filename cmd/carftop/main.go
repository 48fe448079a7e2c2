// Command carftop is a plain-text live view over any carf process
// serving the telemetry plane — a carfstudy or carfsim run started with
// -telemetry, or a carfserve daemon. It polls GET /runs and redraws a
// terminal dashboard: the scheduler summary (workers, hit/miss/join
// counters, cache size), the in-flight run table with progress bars and
// ETAs, and the tail of completed runs.
//
// No TUI dependency: the screen is redrawn with ANSI clear codes, so it
// works in any terminal (and degrades to sequential snapshots when
// piped).
//
// Usage:
//
//	carftop -addr 127.0.0.1:9090
//	carftop -addr 127.0.0.1:8080 -interval 500ms
//	carftop -addr 127.0.0.1:9090 -once        # one snapshot, no clearing (CI)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"carf/internal/sched"
	"carf/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "telemetry address (host:port) of a -telemetry process or carfserve daemon")
		interval = flag.Duration("interval", time.Second, "poll/redraw interval")
		once     = flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + *addr + "/runs"
	for {
		doc, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carftop: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		if !*once {
			// Clear screen + home; plain ANSI, no terminal library.
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(os.Stdout, *addr, doc)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (telemetry.RunsDocument, error) {
	var doc telemetry.RunsDocument
	resp, err := client.Get(url)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return doc, nil
}

func render(w io.Writer, addr string, doc telemetry.RunsDocument) {
	fmt.Fprintf(w, "carftop — %s — %s\n", addr, time.Now().Format("15:04:05"))
	if s := doc.Sched; s != nil {
		fmt.Fprintf(w, "sched: %d workers  runs %d  sim %d  mem-hits %d  disk-hits %d  peer-hits %d  joins %d  canceled %d  errors %d  cache %d\n",
			s.Workers, s.Runs, s.Misses, s.Hits, s.DiskHits, s.PeerHits, s.Joins, s.Canceled, s.Errors, s.CacheEntries)
	}
	fmt.Fprintf(w, "\nIN FLIGHT (%d)\n", len(doc.InFlight))
	fmt.Fprintf(w, "  %-6s %-34s %-9s %-22s %9s %8s %9s\n", "ID", "LABEL", "STATE", "PROGRESS", "MINST/S", "IIPC", "ETA")
	for _, r := range doc.InFlight {
		var p sched.Progress
		if r.Progress != nil {
			p = *r.Progress
		}
		fmt.Fprintf(w, "  %-6d %-34s %-9s %-22s %9s %8s %9s\n",
			r.ID, clip(r.Label, 34), r.State, bar(r.State, p), rate(p.InstsPerSec), iipc(p.IntervalIPC), eta(r.State, p))
	}
	n := len(doc.Completed)
	fmt.Fprintf(w, "\nCOMPLETED (%d shown, %d total)\n", n, doc.CompletedTotal)
	fmt.Fprintf(w, "  %-6s %-34s %-9s %10s\n", "ID", "LABEL", "OUTCOME", "WALL")
	// Newest last — the natural place the eye lands after a redraw.
	const tail = 15
	start := max(0, n-tail)
	for _, r := range doc.Completed[start:] {
		wall := ""
		if r.SimWallMs > 0 {
			wall = (time.Duration(r.SimWallMs * float64(time.Millisecond))).Round(time.Millisecond).String()
		}
		out := r.Outcome
		if r.Err != "" {
			out = "error"
		}
		fmt.Fprintf(w, "  %-6d %-34s %-9s %10s\n", r.ID, clip(r.Label, 34), out, wall)
	}
}

// bar renders a 14-cell progress bar with the percentage, or the raw
// instruction count when the run's target is unknown.
func bar(state string, p sched.Progress) string {
	if state != "running" {
		return ""
	}
	if p.Target == 0 || p.Pct <= 0 {
		if p.Insts > 0 {
			return fmt.Sprintf("%d insts", p.Insts)
		}
		return "starting"
	}
	pct := min(p.Pct, 1)
	const cells = 14
	filled := int(pct * cells)
	return fmt.Sprintf("[%s%s] %3.0f%%",
		strings.Repeat("#", filled), strings.Repeat(".", cells-filled), pct*100)
}

func rate(instsPerSec float64) string {
	if instsPerSec <= 0 {
		return ""
	}
	return fmt.Sprintf("%.2f", instsPerSec/1e6)
}

func iipc(v float64) string {
	if v <= 0 {
		return ""
	}
	return fmt.Sprintf("%.3f", v)
}

func eta(state string, p sched.Progress) string {
	if state != "running" || p.ETASeconds <= 0 {
		return ""
	}
	return (time.Duration(p.ETASeconds * float64(time.Second))).Round(100 * time.Millisecond).String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
