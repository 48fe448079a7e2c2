package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"carf/internal/sched"
)

type payload struct {
	Name  string
	Vals  []float64
	Count uint64
}

func init() { gob.Register(payload{}) }

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

func open(t *testing.T, dir string, opts ...func(*Options)) *Store {
	t.Helper()
	o := Options{Dir: dir, Schema: "test-schema/v1", Logger: testLogger()}
	for _, f := range opts {
		f(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func key(b byte) sched.Key {
	var k sched.Key
	k[0] = b
	return k
}

// degraded opens a store on a path that cannot be a directory. Running
// as root ignores permission bits, so this is the reliable way to make
// the disk unavailable.
func degraded(t *testing.T) *Store {
	t.Helper()
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return open(t, file)
}

// repeatHits runs one job twice through a fresh scheduler over st: the
// first call simulates, the repeat must be a memo hit that does not
// call fn, whatever the store could persist.
func repeatHits(t *testing.T, st *Store, k sched.Key, v any) {
	t.Helper()
	s := sched.New(1)
	s.SetTier(st)
	calls := 0
	for _, want := range []sched.Outcome{sched.Miss, sched.Hit} {
		_, p, err := s.DoProgress(context.Background(), k, "", true, nil, func(sched.ProgressFunc) (any, error) { calls++; return v, nil })
		if err != nil || p.Outcome != want {
			t.Fatalf("Do = %v, %v; want %v", p.Outcome, err, want)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	want := payload{Name: "fib", Vals: []float64{1, 1, 2, 3}, Count: 42}
	s.Store(key(1), want)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh store must serve the value from disk.
	s2 := open(t, dir)
	v, ok := s2.Load(key(1))
	if !ok {
		t.Fatal("Load after reopen: miss, want disk hit")
	}
	got, ok := v.(payload)
	if !ok {
		t.Fatalf("Load returned %T, want payload", v)
	}
	if got.Name != want.Name || got.Count != want.Count || len(got.Vals) != len(want.Vals) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
	// The store holds nothing in memory: a second load reads disk again.
	if _, ok := s2.Load(key(1)); !ok {
		t.Fatal("second Load: miss")
	}
	if st := s2.Stats(); st.DiskHits != 2 {
		t.Fatalf("DiskHits = %d, want 2", st.DiskHits)
	}
}

// encodeBlob is the reference on-disk form of payload: its JSON header
// line, then the payload bytes. Store writes the same bytes without
// assembling them in memory.
func encodeBlob(schema string, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(header{
		Magic:  blobMagic,
		Schema: schema,
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(payload)),
	})
	if err != nil {
		return nil, err
	}
	return append(append(hdr, '\n'), payload...), nil
}

// TestStoredBlobMatchesEncodeBlob pins the blob format: each stored
// file holds exactly encodeBlob's bytes, also when a larger value went
// through the recycled encode buffer first.
func TestStoredBlobMatchesEncodeBlob(t *testing.T) {
	s := open(t, t.TempDir())
	defer s.Close()
	vals := []payload{
		{Name: "large", Vals: make([]float64, 512), Count: 1 << 40},
		{Name: "small", Vals: []float64{0.5}, Count: 3},
	}
	for i, v := range vals {
		k := key(byte(i + 1))
		s.Store(k, v)
		var buf bytes.Buffer
		if err := encodeValue(&buf, v); err != nil {
			t.Fatal(err)
		}
		want, err := encodeBlob(s.schema, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(blobPath(s.Stats().Dir, k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stored blob differs from encodeBlob:\n got %q\nwant %q", v.Name, got, want)
		}
	}
}

func TestMissOnAbsentKey(t *testing.T) {
	s := open(t, t.TempDir())
	if _, ok := s.Load(key(9)); ok {
		t.Fatal("Load of absent key: hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

func TestTruncatedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(2), payload{Name: "victim", Count: 7})
	path := blobPath(s.dir, key(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	// Simulate a crash mid-write that somehow survived as a named blob:
	// chop the payload tail.
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatalf("truncate blob: %v", err)
	}

	s2 := open(t, dir)
	if _, ok := s2.Load(key(2)); ok {
		t.Fatal("Load of truncated blob: hit, want quarantined miss")
	}
	st := s2.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	// The corrupt blob is preserved under quarantine/ and gone from the
	// serving directory.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still present at %s (err=%v)", path, err)
	}
	q, err := os.ReadDir(filepath.Join(s2.dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir: %v entries, err=%v; want 1", len(q), err)
	}
	// Misses are re-storable: a re-simulated value replaces the blob.
	s2.Store(key(2), payload{Name: "victim", Count: 7})
	s3 := open(t, dir)
	if _, ok := s3.Load(key(2)); !ok {
		t.Fatal("Load after re-store: miss")
	}
}

func TestCorruptPayloadBitsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(3), payload{Name: "bits", Count: 1})
	path := blobPath(s.dir, key(3))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip bits in the payload, size stays right
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if _, ok := s2.Load(key(3)); ok {
		t.Fatal("Load of bit-flipped blob: hit, want quarantined miss")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestForeignSchemaNotServed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(4), payload{Name: "old"})
	s.Close()

	s2 := open(t, dir, func(o *Options) { o.Schema = "test-schema/v2" })
	if _, ok := s2.Load(key(4)); ok {
		t.Fatal("v2 store served a v1 blob")
	}
	// Different schema hashes to a different namespace directory, so the
	// v1 blob is untouched, not quarantined.
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0 (namespaces are separate)", st.Quarantined)
	}
	s3 := open(t, dir)
	if _, ok := s3.Load(key(4)); !ok {
		t.Fatal("v1 blob lost after v2 store opened")
	}
}

func TestTmpSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Store(key(5), payload{Name: "keep"})
	// A crashed writer leaves a temporary behind, older than any live
	// peer's write could be.
	stray := filepath.Join(s.dir, "deadbeef-12345.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray .tmp survived Open (err=%v)", err)
	}
	if _, ok := s2.Load(key(5)); !ok {
		t.Fatal("valid blob lost during sweep")
	}
	if st := s2.Stats(); st.DiskBlobs != 1 {
		t.Fatalf("DiskBlobs = %d, want 1", st.DiskBlobs)
	}
}

// TestOpenKeepsPeerTmp: a second store opened while the first is
// writing a blob (between CreateTemp and Rename) must leave that
// temporary alone, so the writer's rename lands and its store stays on
// disk.
func TestOpenKeepsPeerTmp(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	f, err := os.CreateTemp(s.dir, "cafef00d-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("in flight"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	open(t, dir)
	if _, err := os.Stat(f.Name()); err != nil {
		t.Fatalf("a peer's fresh .tmp did not survive Open: %v", err)
	}
	if err := os.Rename(f.Name(), filepath.Join(s.dir, "cafef00d.blob")); err != nil {
		t.Fatalf("the writer's rename failed after a peer's Open: %v", err)
	}
	s.Store(key(7), payload{Name: "after peer open"})
	if st := s.Stats(); st.PutErrors != 0 || st.Degraded || st.Mode != "disk" || st.DiskBlobs != 1 {
		t.Fatalf("store after a peer's Open: %+v; want one blob on disk, no put error", st)
	}
}

func TestDegradeWhenDirIsAFile(t *testing.T) {
	s := degraded(t)
	st := s.Stats()
	if !st.Degraded || st.Mode != "memory-only" {
		t.Fatalf("store not degraded: %+v", st)
	}
	if st.Reason == "" {
		t.Fatal("degraded store has empty Reason")
	}
	// It persists nothing, but the scheduler memo still serves repeats.
	s.Store(key(6), payload{Name: "mem"})
	if _, ok := s.Load(key(6)); ok {
		t.Fatal("degraded store served a value it cannot have persisted")
	}
	repeatHits(t, s, key(7), payload{Name: "memo"})
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Options{Schema: "test-schema/v1", Logger: testLogger()}); err == nil {
		t.Fatal("Open with no Dir succeeded; a store without a disk caches nothing")
	}
}

func TestUnencodableValueSkipped(t *testing.T) {
	s := open(t, t.TempDir())
	type unregistered struct{ X chan int } // gob cannot encode chans
	// The scheduler memo serves the repeat; the store skips the write.
	repeatHits(t, s, key(8), unregistered{})
	st := s.Stats()
	if st.PutSkipped != 1 {
		t.Fatalf("PutSkipped = %d, want 1", st.PutSkipped)
	}
	if st.Degraded {
		t.Fatal("unencodable value degraded the store")
	}
	if _, ok := s.Load(key(8)); ok {
		t.Fatal("unencodable value served from the store")
	}
}

// TestMemoEvictionServedFromDisk: the scheduler memo is the one
// in-memory result cache, so a run it evicts comes back as a disk hit
// read from the store's blob, not a re-simulation.
func TestMemoEvictionServedFromDisk(t *testing.T) {
	st := open(t, t.TempDir())
	s := sched.New(1)
	s.SetTier(st)
	s.SetCacheCap(1)
	run := func(k sched.Key, name string) sched.Provenance {
		t.Helper()
		v, p, err := s.DoProgress(context.Background(), k, name, true, nil, func(sched.ProgressFunc) (any, error) { return payload{Name: name}, nil })
		if err != nil || v.(payload).Name != name {
			t.Fatalf("Do(%s) = %v, %v", name, v, err)
		}
		return p
	}
	run(key(1), "a")
	run(key(2), "b")
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("scheduler Evictions after b = %d, want 1 (a evicted)", got)
	}
	_, p, err := s.DoProgress(context.Background(), key(1), "a", true, nil, func(sched.ProgressFunc) (any, error) {
		t.Error("evicted run was re-simulated despite its blob on disk")
		return nil, nil
	})
	if err != nil || p.Outcome != sched.DiskHit {
		t.Fatalf("evicted reload: %v, %v; want disk-hit", p.Outcome, err)
	}
	if got := st.Stats().DiskHits; got != 1 {
		t.Fatalf("store DiskHits = %d, want 1", got)
	}
}

func TestDegradeOnWriteFailure(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	// Pull the directory out from under the store to force a write error.
	if err := os.RemoveAll(s.dir); err != nil {
		t.Fatal(err)
	}
	s.Store(key(9), payload{Name: "doomed"})
	st := s.Stats()
	if !st.Degraded {
		t.Fatalf("write failure did not degrade the store: %+v", st)
	}
	if st.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
	}
	if _, ok := s.Load(key(9)); ok {
		t.Fatal("degraded store served a value whose write failed")
	}
	// Under a scheduler, repeats are still served from the memo.
	repeatHits(t, s, key(10), payload{Name: "after"})
}

func TestImplementsSchedTier(t *testing.T) {
	var _ sched.Tier = (*Store)(nil)
}

func TestReadingsShape(t *testing.T) {
	s := open(t, t.TempDir())
	s.Store(key(11), payload{Name: "r"})
	rs := s.Readings()
	found := map[string]bool{}
	for _, r := range rs {
		if !strings.HasPrefix(r.Name, "store.") {
			t.Fatalf("reading %q lacks store. prefix", r.Name)
		}
		found[r.Name] = true
	}
	for _, want := range []string{"store.disk_blobs", "store.degraded", "store.puts_total", "store.quarantined_total"} {
		if !found[want] {
			t.Fatalf("Readings missing %s", want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(byte(i % 16))
				if i%3 == 0 {
					s.Store(k, payload{Name: fmt.Sprintf("g%d-i%d", g, i), Count: uint64(i)})
				} else {
					s.Load(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Degraded {
		t.Fatalf("concurrent access degraded the store: %+v", st)
	}
}
