package experiments

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"carf/internal/sched"
	"carf/internal/store"
	"carf/internal/workload"
)

// quietLogger suppresses the store's (expected) quarantine and
// degradation reports so test output stays readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// renderWithStore runs name at scale on a fresh scheduler backed by a fresh
// store over dir and returns the rendered text plus both stat
// snapshots.
func renderWithStore(t *testing.T, name, dir string, scale float64) (string, sched.Stats, store.Stats) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	s := sched.New(4)
	s.SetTier(st)
	text := render(t, name, Options{Scale: scale, Sched: s})
	return text, s.Stats(), st.Stats()
}

// TestCrashRecovery is the crash-safety gate: a blob torn by a
// simulated crash (truncated payload, stray temp file) must be
// detected by its checksum, quarantined — never served — and the run
// transparently re-simulated, with the rendered exhibit byte-identical
// to an undamaged store's.
func TestCrashRecovery(t *testing.T) {
	const exp = "table2"
	want := render(t, exp, Options{Scale: determinismScale, Sched: sched.New(1)})
	dir := t.TempDir()

	// Round 1: populate the store.
	text, _, sst := renderWithStore(t, exp, dir, determinismScale)
	if text != want {
		t.Fatalf("store-backed render differs from plain render:\n--- want ---\n%s\n--- got ---\n%s", want, text)
	}
	if sst.Puts == 0 {
		t.Fatalf("round 1 persisted nothing (store stats %+v)", sst)
	}

	// Simulate a crash mid-write: truncate one blob's payload and plant
	// a stray temp file like an interrupted writeBlob would leave.
	blobs, err := filepath.Glob(filepath.Join(dir, "schema-*", "*.blob"))
	if err != nil || len(blobs) < 2 {
		t.Fatalf("expected >= 2 blobs on disk, found %d (err %v)", len(blobs), err)
	}
	victim := blobs[0]
	info, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(filepath.Dir(victim), "deadbeef-crash.tmp")
	if err := os.WriteFile(stray, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Open sweeps only temporaries older than the lease timeout (a
	// younger one may be a live peer's write); the crash was long ago.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}

	// Round 2: a fresh store over the damaged directory must sweep the
	// temp file, quarantine the truncated blob, serve the intact ones
	// from disk, and re-simulate the lost run — byte-identically.
	text2, schedStats, sst2 := renderWithStore(t, exp, dir, determinismScale)
	if text2 != want {
		t.Errorf("recovered render differs from pristine render:\n--- want ---\n%s\n--- got ---\n%s", want, text2)
	}
	if sst2.Quarantined == 0 {
		t.Errorf("truncated blob was not quarantined (store stats %+v)", sst2)
	}
	if schedStats.DiskHits == 0 {
		t.Errorf("intact blobs were not served from the disk tier (sched stats %+v)", schedStats)
	}
	if schedStats.Misses == 0 {
		t.Errorf("quarantined run was not re-simulated (sched stats %+v)", schedStats)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray temp file survived reopen: %v", err)
	}
	// The victim path exists again — re-persisted by the re-simulation —
	// but it must now be a full-size valid blob, not the torn one.
	if ni, err := os.Stat(victim); err != nil || ni.Size() != info.Size() {
		t.Errorf("re-persisted blob at %s: size %v want %d (err %v)", victim, ni, info.Size(), err)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "schema-*", "quarantine", "*"))
	if len(quarantined) == 0 {
		t.Error("quarantine directory is empty; corrupt blob was deleted, not preserved for inspection")
	}

	// Round 3: the re-simulated run was re-persisted, so a third fresh
	// store serves everything from disk.
	text3, schedStats3, _ := renderWithStore(t, exp, dir, determinismScale)
	if text3 != want {
		t.Error("round 3 render differs")
	}
	if schedStats3.Misses != 0 {
		t.Errorf("round 3 re-simulated %d runs; want all served from disk", schedStats3.Misses)
	}
}

// warmPassRuns counts TestWarmPassBuildsNoKernel's runs in this process.
var warmPassRuns int

// TestWarmPassBuildsNoKernel: kernels are built inside scheduler jobs,
// so a pass served entirely from the store builds no program, and a cold
// pass builds each kernel of a suite at most once however many
// configurations run over that suite. Kernels are built once per
// process and scale, so the test runs at a scale no other test in this
// package uses, fresh on every run (go test -count): its cold pass must
// still build.
func TestWarmPassBuildsNoKernel(t *testing.T) {
	warmPassRuns++
	const exp = "sweeps"
	scale := 0.035 + 1e-4*float64(warmPassRuns)
	dir := t.TempDir()
	perSuite := uint64(len(workload.Names()))

	before := workload.Builds()
	want, cold, _ := renderWithStore(t, exp, dir, scale)
	if n := workload.Builds() - before; n == 0 || n > perSuite {
		t.Errorf("cold %s built %d kernel programs for %d simulations, want 1..%d", exp, n, cold.Misses, perSuite)
	}

	before = workload.Builds()
	got, warm, _ := renderWithStore(t, exp, dir, scale)
	if warm.Misses != 0 || warm.DiskHits == 0 {
		t.Fatalf("warm %s: %d misses, %d disk hits; want every run served from the store", exp, warm.Misses, warm.DiskHits)
	}
	if n := workload.Builds() - before; n != 0 {
		t.Errorf("warm %s built %d kernel programs, want 0", exp, n)
	}
	if got != want {
		t.Errorf("warm render differs from cold render:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
}

// TestEveryRunPersists: every run kind's value persists. All the
// experiments run into a fresh store with no write skipped, and a
// second fresh scheduler over that store simulates nothing and renders
// every exhibit byte-identically.
func TestEveryRunPersists(t *testing.T) {
	dir := t.TempDir()
	pass := func() ([]string, sched.Stats, store.Stats) {
		st, err := store.Open(store.Options{Dir: dir, Schema: StoreSchema, Logger: quietLogger()})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		defer st.Close()
		s := sched.New(4)
		s.SetTier(st)
		texts := make([]string, len(Names()))
		for i, name := range Names() {
			texts[i] = render(t, name, Options{Scale: determinismScale, Sched: s})
		}
		return texts, s.Stats(), st.Stats()
	}
	want, cold, cst := pass()
	if cst.PutSkipped != 0 || cst.PutErrors != 0 || uint64(cst.DiskBlobs) != cold.Misses {
		t.Fatalf("cold pass simulated %d runs but stored %d blobs (%d skipped, %d failed)",
			cold.Misses, cst.DiskBlobs, cst.PutSkipped, cst.PutErrors)
	}
	got, warm, _ := pass()
	if warm.Misses != 0 || warm.Errors != 0 {
		t.Errorf("warm pass simulated %d runs (%d errors), want none", warm.Misses, warm.Errors)
	}
	for i, name := range Names() {
		if got[i] != want[i] {
			t.Errorf("%s: warm render differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", name, want[i], got[i])
		}
	}
}
