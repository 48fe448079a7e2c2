package pipeline

import (
	"strings"
	"testing"

	"carf/internal/harden"
	"carf/internal/workload"
)

// wakeupStressConfig turns on every path that parks, wakes, or unlinks
// issue-queue entries — wrong-path squashes, the cross-cluster
// forwarding cycle, read-port retries — with a tight invariant sweep.
func wakeupStressConfig() Config {
	cfg := DefaultConfig()
	cfg.WrongPath = true
	cfg.Clusters = 2
	cfg.PortContention = true
	cfg.Harden = harden.Options{SweepEvery: 64}
	return cfg
}

// TestWakeupListsStayConsistent: the iq-wakeup sweep must stay silent
// on every kernel under the stress configuration.
func TestWakeupListsStayConsistent(t *testing.T) {
	var squashes uint64
	for _, r := range workload.AllKernels(0.02) {
		k, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := NewChecked(wakeupStressConfig(), k.Prog, carfModel())
		if err != nil {
			t.Fatal(err)
		}
		st, err := cpu.Run()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if got := cpu.mach.X[workload.ResultReg]; got != k.Expected {
			t.Errorf("%s: result %#x, want %#x", k.Name, got, k.Expected)
		}
		squashes += st.Squashes
	}
	if squashes == 0 {
		t.Fatal("no wrong-path squash ran; the unlink path went untested")
	}
}

// TestWakeupSweepCatchesBrokenList: corrupting one waiter-list link
// must raise an iq-wakeup violation.
func TestWakeupSweepCatchesBrokenList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(head *dynInst)
		want    string
	}{
		{"back link", func(head *dynInst) { head.waitNext.waitPrev = nil }, "does not link back"},
		{"dropped waiter", func(head *dynInst) { head.waitNext = nil }, "reached 0 times"},
	} {
		k, err := workload.ByName("qsort", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := NewChecked(wakeupStressConfig(), k.Prog, carfModel())
		if err != nil {
			t.Fatal(err)
		}
		head := parkedPair(t, cpu)
		if vs := cpu.checkInvariants(); len(vs) != 0 {
			t.Fatalf("%s: sweep fails before corruption: %v", tc.name, vs)
		}
		tc.corrupt(head)
		found := false
		for _, v := range cpu.checkInvariants() {
			if v.Check == "iq-wakeup" && strings.Contains(v.Detail, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: corruption not reported (want an iq-wakeup violation containing %q)", tc.name, tc.want)
		}
	}
}

// parkedPair runs cpu cycle by cycle until some integer tag has at
// least two parked waiters and returns that list's head.
func parkedPair(t *testing.T, cpu *CPU) *dynInst {
	t.Helper()
	for cycle := 0; cycle < 50000; cycle++ {
		for _, head := range cpu.intWaitHead {
			if head != nil && head.waitNext != nil {
				return head
			}
		}
		done, err := cpu.RunChunk(1)
		if err != nil || done {
			break
		}
	}
	t.Fatal("no tag ever had two parked waiters")
	return nil
}
