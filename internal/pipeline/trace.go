package pipeline

import (
	"fmt"
	"strings"

	"carf/internal/isa"
)

// TraceEvent records one committed instruction's journey through the
// pipeline (cycle numbers per stage). Events are emitted in commit
// order, which is program order.
type TraceEvent struct {
	Seq  uint64
	PC   uint64
	Inst isa.Inst

	Fetch    int64
	Rename   int64
	Issue    int64
	ExecDone int64
	WBDone   int64
	Commit   int64

	Mispredicted bool
}

// Tracer receives commit-time trace events.
type Tracer interface {
	Trace(TraceEvent)
}

// TraceBuffer is a Tracer that retains up to Cap events (0 = unbounded).
// Events arriving after the buffer is full are counted in Dropped, never
// lost silently.
type TraceBuffer struct {
	Cap     int
	Events  []TraceEvent
	Dropped uint64
}

// Trace implements Tracer.
func (b *TraceBuffer) Trace(ev TraceEvent) {
	if b.Cap > 0 && len(b.Events) >= b.Cap {
		b.Dropped++
		return
	}
	b.Events = append(b.Events, ev)
}

// Format renders the retained events as a pipeview table and, when the
// buffer overflowed, reports how many events were dropped.
func (b *TraceBuffer) Format() string {
	out := FormatTrace(b.Events)
	if b.Dropped > 0 {
		out += fmt.Sprintf("... %d events dropped (buffer cap %d reached)\n", b.Dropped, b.Cap)
	}
	return out
}

// FormatTrace renders events as a pipeview table.
func FormatTrace(events []TraceEvent) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-10s %-28s %7s %7s %7s %7s %7s %7s\n",
		"seq", "pc", "instruction", "fetch", "rename", "issue", "exec", "wb", "commit")
	for _, ev := range events {
		mark := ""
		if ev.Mispredicted {
			mark = " !mispredict"
		}
		fmt.Fprintf(&sb, "%-6d %#-10x %-28s %7d %7d %7d %7d %7d %7d%s\n",
			ev.Seq, ev.PC, ev.Inst.String(),
			ev.Fetch, ev.Rename, ev.Issue, ev.ExecDone, ev.WBDone, ev.Commit, mark)
	}
	return sb.String()
}
