// Package store is the persistent half of the simulation result cache:
// on-disk content-addressed blobs behind sched.Tier, so a scheduler
// wired to it serves previously computed runs across process restarts.
// The scheduler's memo is the one in-memory result cache; the store
// holds no values in memory.
//
// Crash safety is the design center:
//
//   - Blobs are written to a temporary file and renamed into place, so
//     a crash mid-write never leaves a partially-written blob under a
//     valid name. Leftover temporaries are swept on Open.
//   - Every blob carries a header with the run-key schema string and a
//     sha256 checksum of its payload. Both are verified on every read;
//     a blob that fails verification (truncated by a crash, flipped
//     bits, foreign schema) is quarantined — moved aside, never served,
//     never fatal — and the read reports a miss so the scheduler simply
//     re-simulates.
//   - When the blob directory is missing, not creatable, or not
//     writable (read-only volume), the store degrades to memory-only
//     operation: it logs the reason loudly once, persists nothing more
//     (the scheduler memo still serves results within the process),
//     and surfaces the degradation in Stats for /healthz.
//
// Blobs are namespaced by a hash of the schema string, so a schema
// bump (a change to the persisted value encoding) starts a fresh
// namespace instead of serving stale bytes; old namespaces are left on
// disk for manual cleanup or rollback.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"carf/internal/metrics"
	"carf/internal/sched"
)

// blobMagic identifies the on-disk blob container format (the header
// layout), independent of the payload schema the header then names.
const blobMagic = "carf-blob/v1"

// encodeValue appends v to buf with encoding/gob through an interface
// envelope: any concrete type registered with gob.Register round-trips;
// unregistered types fail (the store counts and skips them).
func encodeValue(buf *bytes.Buffer, v any) error {
	return gob.NewEncoder(buf).Encode(&v)
}

// payloads recycles Store's encode buffers, so a put allocates no
// payload bytes once the buffers have grown to the values' size.
var payloads = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeValue reverses encodeValue.
func decodeValue(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// Options configures Open.
type Options struct {
	// Dir is the blob directory root. Required. The store manages a
	// schema-named subdirectory.
	Dir string

	// Schema versions the persisted payload encoding; it must change
	// whenever the meaning or encoding of stored values changes.
	// Required.
	Schema string

	// Logger receives degradation and quarantine reports (default
	// slog.Default()).
	Logger *slog.Logger
}

// tmpSweepAge is how old a blob temporary must be before Open deletes
// it as a crashed writer's leftover.
const tmpSweepAge = 10 * time.Second

// Stats is a snapshot of the store's counters and condition, shaped for
// /healthz and logs.
type Stats struct {
	Dir       string `json:"dir,omitempty"`    // schema-namespaced blob directory ("" when degraded)
	Mode      string `json:"mode"`             // "disk" or "memory-only"
	Reason    string `json:"reason,omitempty"` // why the store is memory-only, when degraded
	Degraded  bool   `json:"degraded"`         // true when the disk is unavailable
	DiskBlobs int    `json:"disk_blobs"`       // valid blobs believed on disk

	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	PutSkipped  uint64 `json:"put_skipped"` // values gob cannot encode (a bug: every run kind persists)
	PutErrors   uint64 `json:"put_errors"`  // disk writes that failed (triggers degradation)
	Quarantined uint64 `json:"quarantined"` // corrupt blobs moved aside

	LeasesAcquired uint64 `json:"leases_acquired,omitempty"` // cross-process leases won
	LeaseLosses    uint64 `json:"lease_losses,omitempty"`    // failed claims: one per poll of a peer's lease, not per contended run
}

// Store is the on-disk result store. All methods are safe for
// concurrent use. It implements sched.Tier.
type Store struct {
	dir       string // schema-namespaced root; "" when degraded
	qdir      string // quarantine directory under dir
	leasePath string // cross-process lease lock file under dir; "" when degraded
	schema    string
	log       *slog.Logger

	mu     sync.Mutex
	st     Stats
	closed bool
}

// Open opens (creating if needed) the store rooted at o.Dir. Disk
// problems never fail Open: the store degrades to memory-only operation
// and says so loudly — check Stats().Degraded when the distinction
// matters. The only errors are a missing directory or schema.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required (the store keeps nothing in memory)")
	}
	if o.Schema == "" {
		return nil, fmt.Errorf("store: Options.Schema is required (it versions the persisted encoding)")
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	s := &Store{schema: o.Schema, log: o.Logger}

	sum := sha256.Sum256([]byte(o.Schema))
	dir := filepath.Join(o.Dir, "schema-"+hex.EncodeToString(sum[:4]))
	if err := s.initDisk(dir); err != nil {
		s.degradeLocked(fmt.Sprintf("disk tier unavailable: %v", err))
		return s, nil
	}
	s.dir = dir
	s.qdir = filepath.Join(dir, "quarantine")
	s.leasePath = filepath.Join(dir, leaseFile)
	s.st.Dir = dir
	s.st.Mode = "disk"
	return s, nil
}

// initDisk creates the schema directory, proves it writable, records
// the schema text for humans, sweeps crash leftovers, and counts blobs.
func (s *Store) initDisk(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return err
	}
	// Write-probe: a read-only volume fails here, not on the first Put.
	probe := filepath.Join(dir, ".probe.tmp")
	if err := os.WriteFile(probe, []byte(blobMagic), 0o644); err != nil {
		return fmt.Errorf("directory is not writable: %w", err)
	}
	os.Remove(probe)
	// Best-effort human-readable schema marker.
	os.WriteFile(filepath.Join(dir, "SCHEMA"), []byte(s.schema+"\n"), 0o644) //nolint:errcheck
	// Sweep temporaries a crashed writer left behind and count blobs. A
	// temporary younger than tmpSweepAge may be a live peer's write
	// between CreateTemp and Rename, so it stays.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	blobs := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case filepath.Ext(name) == ".tmp":
			if info, err := e.Info(); err != nil || time.Since(info.ModTime()) < tmpSweepAge {
				continue
			}
			os.Remove(filepath.Join(dir, name))
			s.log.Info("store: removed interrupted write", "file", name)
		case filepath.Ext(name) == ".blob":
			blobs++
		}
	}
	s.st.DiskBlobs = blobs
	return nil
}

// degradeLocked switches the store to memory-only operation. Callers
// may hold s.mu or not (Open calls it before the store is shared).
func (s *Store) degradeLocked(reason string) {
	s.dir = ""
	s.leasePath = ""
	s.st.Mode = "memory-only"
	s.st.Degraded = true
	s.st.Reason = reason
	s.st.Dir = ""
	s.log.Error("store: DEGRADED to memory-only operation — results will not survive restarts", "reason", reason)
}

// blobPath returns key's blob file under dir, the directory a caller
// read under s.mu (degradation clears s.dir concurrently).
func blobPath(dir string, key sched.Key) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+".blob")
}

// header is the JSON first line of every blob.
type header struct {
	Magic  string `json:"magic"`
	Schema string `json:"schema"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Load implements sched.Tier: read, verify and decode key's blob. A
// corrupt blob is quarantined and reported as a miss.
func (s *Store) Load(key sched.Key) (any, bool) {
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()

	if dir == "" {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	path := blobPath(dir, key)
	payload, err := s.readBlob(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.count(func(st *Stats) { st.Misses++ })
		} else {
			s.quarantine(path, err)
			s.count(func(st *Stats) { st.Misses++ })
		}
		return nil, false
	}
	v, err := decodeValue(payload)
	if err != nil {
		// The bytes are intact but no longer decodable (a type fell out
		// of registration): quarantine, same as corruption.
		s.quarantine(path, fmt.Errorf("payload does not decode: %w", err))
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	s.count(func(st *Stats) { st.DiskHits++ })
	return v, true
}

// maxHeader bounds the JSON header line of a blob.
const maxHeader = 4096

// readBlob reads and verifies one blob file, returning its payload.
// Any verification failure is an error distinct from fs.ErrNotExist.
func (s *Store) readBlob(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return verifyBlob(b, s.schema)
}

// verifyBlob splits a blob into its header line and payload and returns
// the payload only if magic, schema, size and checksum all verify.
func verifyBlob(b []byte, schema string) ([]byte, error) {
	nl := bytes.IndexByte(b[:min(len(b), maxHeader+1)], '\n')
	if nl < 0 {
		if len(b) > maxHeader {
			return nil, fmt.Errorf("blob header line exceeds %d bytes", maxHeader)
		}
		return nil, fmt.Errorf("blob header unreadable: %w", io.ErrUnexpectedEOF)
	}
	var h header
	if err := json.Unmarshal(b[:nl], &h); err != nil {
		return nil, fmt.Errorf("blob header is not valid JSON: %w", err)
	}
	if h.Magic != blobMagic {
		return nil, fmt.Errorf("blob magic %q, want %q", h.Magic, blobMagic)
	}
	if h.Schema != schema {
		return nil, fmt.Errorf("blob schema %q, store schema %q", h.Schema, schema)
	}
	payload := b[nl+1:]
	if int64(len(payload)) != h.Size {
		return nil, fmt.Errorf("blob payload is %d bytes, header says %d (truncated write?)", len(payload), h.Size)
	}
	sum := sha256.Sum256(payload)
	var got [2 * sha256.Size]byte
	hex.Encode(got[:], sum[:])
	if string(got[:]) != h.SHA256 {
		return nil, fmt.Errorf("blob checksum mismatch: payload %s, header %s", got[:8], h.SHA256[:min(8, len(h.SHA256))])
	}
	return payload, nil
}

// quarantine moves a bad blob aside so it is never served again and
// never re-verified on every request, preserving it for post-mortems.
func (s *Store) quarantine(path string, cause error) {
	dst := filepath.Join(s.qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		// Could not move it (gone already, or read-only disk): removing
		// is the next best containment; failing that, it stays and will
		// fail verification again next time — still never served.
		os.Remove(path) //nolint:errcheck
		dst = "(removed)"
	}
	s.log.Error("store: QUARANTINED corrupt blob — will re-simulate",
		"blob", filepath.Base(path), "moved_to", dst, "cause", cause)
	s.count(func(st *Stats) {
		st.Quarantined++
		if st.DiskBlobs > 0 {
			st.DiskBlobs--
		}
	})
}

// Store implements sched.Tier: persist val under key, best effort.
func (s *Store) Store(key sched.Key, val any) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.st.Puts++
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return
	}

	buf := payloads.Get().(*bytes.Buffer)
	defer payloads.Put(buf)
	buf.Reset()
	if err := encodeValue(buf, val); err != nil {
		// The value's type is not persistable (unregistered, or holding
		// what gob cannot carry). Every run kind's value is meant to
		// persist, so this is a bug the experiments' tests catch; count
		// it and move on.
		s.count(func(st *Stats) { st.PutSkipped++ })
		return
	}
	if err := s.writeBlob(dir, key, buf.Bytes()); err != nil {
		s.mu.Lock()
		s.st.PutErrors++
		s.degradeLocked(fmt.Sprintf("blob write failed: %v", err))
		s.mu.Unlock()
		return
	}
	s.count(func(st *Stats) { st.DiskBlobs++ })
}

// writeBlob writes payload's JSON header line, then the payload, to a
// temporary and renames it into place, so a crash at any point leaves
// either the old blob or a .tmp that a later Open sweeps once it is
// older than tmpSweepAge — never a truncated blob under a valid name.
func (s *Store) writeBlob(dir string, key sched.Key, payload []byte) error {
	f, err := os.CreateTemp(dir, hex.EncodeToString(key[:4])+"-*.tmp")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	// Encode ends the header line with the newline the format wants.
	err = json.NewEncoder(f).Encode(header{
		Magic:  blobMagic,
		Schema: s.schema,
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(payload)),
	})
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), blobPath(dir, key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// count applies a stats mutation under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.st)
	s.mu.Unlock()
}

// Stats snapshots the store's counters and condition.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Readings exports the store's counters in the metrics Reading shape
// for Prometheus exposition alongside the scheduler's series.
func (s *Store) Readings() []metrics.Reading {
	st := s.Stats()
	degraded := 0.0
	if st.Degraded {
		degraded = 1
	}
	return []metrics.Reading{
		{Name: "store.disk_blobs", Kind: metrics.ReadGauge, Value: float64(st.DiskBlobs)},
		{Name: "store.degraded", Kind: metrics.ReadGauge, Value: degraded},
		{Name: "store.disk_hits_total", Kind: metrics.ReadCounter, Value: float64(st.DiskHits)},
		{Name: "store.misses_total", Kind: metrics.ReadCounter, Value: float64(st.Misses)},
		{Name: "store.puts_total", Kind: metrics.ReadCounter, Value: float64(st.Puts)},
		{Name: "store.put_skipped_total", Kind: metrics.ReadCounter, Value: float64(st.PutSkipped)},
		{Name: "store.put_errors_total", Kind: metrics.ReadCounter, Value: float64(st.PutErrors)},
		{Name: "store.quarantined_total", Kind: metrics.ReadCounter, Value: float64(st.Quarantined)},
		{Name: "store.leases_acquired_total", Kind: metrics.ReadCounter, Value: float64(st.LeasesAcquired)},
		{Name: "store.lease_losses_total", Kind: metrics.ReadCounter, Value: float64(st.LeaseLosses)},
	}
}

// Close flushes and closes the store. Writes are synchronous, so Close
// only fences off further writes; it exists so shutdown paths have an
// explicit "the store is consistent on disk now" point.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}
