package pipeline

import (
	"context"
	"strings"
	"testing"

	"carf/internal/core"
	"carf/internal/regfile"
	"carf/internal/workload"
)

// TestTraceInvariants commits a full kernel under tracing and checks the
// pipeline-order invariants that must hold for every single instruction
// on every organization:
//
//	fetch ≤ rename < issue, issue < execDone, execDone ≤ wbDone < commit,
//	commits in program order with nondecreasing commit cycles.
func TestTraceInvariants(t *testing.T) {
	for _, model := range []regfile.Model{regfile.Baseline(), core.New(core.DefaultParams())} {
		model := model
		t.Run(model.Name(), func(t *testing.T) {
			k, err := workload.ByName("treeinsert", 0.05)
			if err != nil {
				t.Fatal(err)
			}
			cpu := New(DefaultConfig(), k.Prog, model)
			buf := &TraceBuffer{}
			if _, err := cpu.RunContext(context.Background(), Observe{Trace: buf}); err != nil {
				t.Fatal(err)
			}
			if len(buf.Events) == 0 {
				t.Fatal("no trace events")
			}
			readStages := int64(model.ReadStages())
			var prev TraceEvent
			for i, ev := range buf.Events {
				if ev.Fetch > ev.Rename {
					t.Fatalf("seq %d: rename %d before fetch %d", ev.Seq, ev.Rename, ev.Fetch)
				}
				if ev.Rename > ev.Issue {
					t.Fatalf("seq %d: issue %d before rename %d", ev.Seq, ev.Issue, ev.Rename)
				}
				if ev.ExecDone < ev.Issue+readStages+1 {
					t.Fatalf("seq %d: exec %d too early for issue %d (read stages %d)",
						ev.Seq, ev.ExecDone, ev.Issue, readStages)
				}
				if ev.WBDone < ev.ExecDone {
					t.Fatalf("seq %d: wb %d before exec %d", ev.Seq, ev.WBDone, ev.ExecDone)
				}
				if ev.Commit <= ev.WBDone {
					t.Fatalf("seq %d: commit %d not after wb %d", ev.Seq, ev.Commit, ev.WBDone)
				}
				if i > 0 {
					if ev.Seq != prev.Seq+1 {
						t.Fatalf("commit order broke: seq %d after %d", ev.Seq, prev.Seq)
					}
					if ev.Commit < prev.Commit {
						t.Fatalf("commit cycles went backwards: %d after %d", ev.Commit, prev.Commit)
					}
				}
				prev = ev
			}
		})
	}
}

func TestTraceBufferCap(t *testing.T) {
	k, err := workload.ByName("histo", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	buf := &TraceBuffer{Cap: 10}
	st, err := cpu.RunContext(context.Background(), Observe{Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.Events) != 10 {
		t.Errorf("buffer holds %d events, want 10", len(buf.Events))
	}
	if want := st.Instructions - 10; buf.Dropped != want {
		t.Errorf("dropped = %d, want %d (no silent event loss)", buf.Dropped, want)
	}
	out := buf.Format()
	if !strings.Contains(out, "events dropped") {
		t.Errorf("Format does not report dropped events:\n%s", out)
	}
}

func TestTraceBufferUnboundedNeverDrops(t *testing.T) {
	k, err := workload.ByName("histo", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	buf := &TraceBuffer{}
	st, err := cpu.RunContext(context.Background(), Observe{Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Dropped != 0 || uint64(len(buf.Events)) != st.Instructions {
		t.Errorf("unbounded buffer: %d events, %d dropped, want %d events, 0 dropped",
			len(buf.Events), buf.Dropped, st.Instructions)
	}
	if out := buf.Format(); strings.Contains(out, "events dropped") {
		t.Error("Format reports drops for an unbounded buffer")
	}
}

func TestFormatTrace(t *testing.T) {
	k, err := workload.ByName("crc64", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	buf := &TraceBuffer{Cap: 5}
	if _, err := cpu.RunContext(context.Background(), Observe{Trace: buf}); err != nil {
		t.Fatal(err)
	}
	out := FormatTrace(buf.Events)
	if !strings.Contains(out, "commit") || !strings.Contains(out, "limm") {
		t.Errorf("trace output missing expected content:\n%s", out)
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 6 {
		t.Errorf("trace lines = %d, want header + 5", got)
	}
}
