package experiments

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"carf/internal/sched"
	"carf/internal/store"
)

// TestCrashHelperSimulate is not a test: it is the worker half of
// TestLeaseFreedWhenHolderKilled, re-executed as a child process. It
// opens the shared store and simulates table2. Its first progress frame
// comes from a running simulation, which holds that run's lease: it
// writes the marker file there and stalls the simulation until the
// parent SIGKILLs it.
func TestCrashHelperSimulate(t *testing.T) {
	dir := os.Getenv("CARF_CRASH_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process for TestLeaseFreedWhenHolderKilled")
	}
	st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(1)
	s.SetTier(st)
	var once sync.Once
	onProgress := func(sched.Progress) {
		once.Do(func() {
			os.WriteFile(os.Getenv("CARF_CRASH_HELPER_MARKER"), nil, 0o644) //nolint:errcheck // the parent times out without it
			time.Sleep(time.Hour)
		})
	}
	_, _ = Run("table2", Options{Scale: determinismScale, Sched: s, OnProgress: onProgress})
}

// TestLeaseFreedWhenHolderKilled is the cross-process crash gate: a
// worker process SIGKILLed while it holds a simulation's lease takes
// the lock with it, as the kernel frees the locks of a dead process. A
// surviving process sweeping the same store with default options must
// claim that lease at once, re-simulate, and produce output
// byte-identical to a serial run that never saw the crash.
func TestLeaseFreedWhenHolderKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child simulation process")
	}
	const exp = "table2"
	want := render(t, exp, Options{Scale: determinismScale, Sched: sched.New(1)})

	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	marker := filepath.Join(t.TempDir(), "holding")
	cmd := exec.Command(self, "-test.run", "^TestCrashHelperSimulate$")
	cmd.Env = append(os.Environ(), "CARF_CRASH_HELPER_DIR="+dir, "CARF_CRASH_HELPER_MARKER="+marker)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, err := os.Stat(marker); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait() //nolint:errcheck
			t.Fatal("worker sent no progress frame within 60s")
		}
	}
	cmd.Process.Kill() // SIGKILL mid-simulation: no release
	cmd.Wait()         //nolint:errcheck // "signal: killed" is the point

	st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := sched.New(2)
	s.SetTier(st)

	got := render(t, exp, Options{Scale: determinismScale, Sched: s})
	if got != want {
		t.Fatalf("post-crash render differs from serial:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// The dead worker's lock died with it: the survivor must not wait
	// out its lease.
	if wait := s.Stats().LeaseWait; wait >= time.Second {
		t.Errorf("survivor waited %v on leases, want well under 1s", wait)
	}
}

// TestSharedStoreSimulatesEachRunOnce is the cross-process singleflight
// gate: two store handles on one directory, each under its own
// scheduler, stand in for two processes sharing a store. Running table2
// (plain simulations) and phases (metric-sampled runs) through both at
// once, each must render what a serial scheduler renders, and between
// them they must simulate exactly the runs the serial scheduler
// simulates: every run one side simulates, the other reads from disk
// or waits out its lease for.
func TestSharedStoreSimulatesEachRunOnce(t *testing.T) {
	exps := []string{"table2", "phases"}
	renderAll := func(s *sched.Scheduler) (string, error) {
		var out string
		for _, exp := range exps {
			r, err := Run(exp, Options{Scale: determinismScale, Sched: s})
			if err != nil {
				return "", err
			}
			out += r.Render()
		}
		return out, nil
	}
	serial := sched.New(1)
	want, err := renderAll(serial)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var peers [2]*sched.Scheduler
	for i := range peers {
		st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		peers[i] = sched.New(1)
		peers[i].SetTier(st)
	}
	var got [2]string
	err = sched.ForEach(len(peers), func(i int) error {
		var err error
		got[i], err = renderAll(peers[i])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range peers {
		if got[i] != want {
			t.Errorf("peer %d render differs from serial:\n--- want ---\n%s\n--- got ---\n%s", i, want, got[i])
		}
	}

	a, b := peers[0].Stats(), peers[1].Stats()
	if misses, serialMisses := a.Misses+b.Misses, serial.Stats().Misses; misses != serialMisses {
		t.Errorf("peers simulated %d+%d runs, want %d in total (serial); a=%+v b=%+v", a.Misses, b.Misses, serialMisses, a, b)
	}
	if a.PeerHits+a.DiskHits+b.PeerHits+b.DiskHits == 0 {
		t.Errorf("peers shared nothing through the store; a=%+v b=%+v", a, b)
	}
}
