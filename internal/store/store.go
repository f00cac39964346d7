// Package store is the daemon's crash-safe persistence layer: a JSON
// snapshot plus a checksummed append-only write-ahead log, both in one
// state directory. The medic appends a record per state change, folds the
// log into a fresh snapshot every so often (Checkpoint), and on restart
// replays WAL-over-snapshot to resume exactly where the dead process
// stopped — the decoupling of daemon state from daemon lifetime that the
// openperouter resiliency design applies to forwarding state.
//
// Crash-consistency invariants:
//
//   - Every Append is one write(2) of a length-prefixed, CRC-framed record
//     followed (by default) by fsync: a record is either fully durable or
//     cleanly absent.
//   - A snapshot is written to a temp file, fsynced, and renamed over the
//     previous one; the WAL is truncated only after the rename is durable.
//     A crash between the two leaves a snapshot plus a WAL whose records
//     are all already folded in — replay is idempotent because records
//     carry absolute state, not deltas that double-apply.
//   - On open, a truncated tail record (the footprint of a crash mid-append)
//     is tolerated and trimmed; a torn record in the middle of the log —
//     bytes that can only come from corruption or a concurrent writer —
//     fails loudly instead of silently dropping the records behind it.
//
// Concurrent writers are excluded by lease, not by lock: callers wire
// Options.Guard to their elector's leadership check, and every Append and
// Checkpoint re-validates it, so a deposed leader's late writes are refused
// at the store boundary just as its late pushes are refused on the wire.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"

	// recMagic marks the start of every WAL frame; a frame is
	// [magic u16][payload length u32][payload CRC32 u32][payload].
	recMagic     = uint16(0xA17E)
	frameHdrSize = 2 + 4 + 4
	// maxRecordSize bounds one record's payload; larger lengths in a header
	// can only come from corruption.
	maxRecordSize = 64 << 20
)

// ErrCorrupt reports a torn WAL record in the middle of the log: valid
// records follow it, so trimming would silently lose durable state.
var ErrCorrupt = errors.New("store: torn WAL record mid-log")

// ErrGuarded reports a write refused by Options.Guard — the caller no
// longer holds the lease that makes it the store's legitimate writer.
var ErrGuarded = errors.New("store: write refused by guard")

// Record is one WAL entry: an opaque, kind-tagged JSON payload. The store
// frames and checksums it; the caller gives it meaning.
type Record struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Options tunes a Store.
type Options struct {
	// NoSync skips the fsync after each append and checkpoint. Tests use it
	// for speed; a production daemon must not.
	NoSync bool
	// Guard, when set, is consulted before every Append and Checkpoint; a
	// non-nil error refuses the write with ErrGuarded. Wire it to the
	// elector's leadership check to fence a deposed leader's late writes.
	Guard func() error
	// CompactEvery is the compaction threshold (default 64): once this many
	// records accumulate since the last checkpoint, NeedsCheckpoint reports
	// true and the owning daemon should fold the WAL into a snapshot. It
	// bounds both the WAL's size on disk and the replay work a restarted
	// process pays.
	CompactEvery int
}

// Store is an open snapshot+WAL state directory. One process (the current
// leader) holds it for appending; followers read the same directory with
// ReadState.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	wal      *os.File
	snapshot []byte   // raw snapshot payload loaded at Open
	records  []Record // WAL records loaded at Open
	pending  int      // records in the WAL since the last checkpoint

	fsyncs      atomic.Uint64
	checkpoints atomic.Uint64
}

// Open loads the state directory: the snapshot payload (if any), then the
// WAL replayed over it. A truncated tail record is trimmed; a torn middle
// record returns ErrCorrupt. The returned store holds the WAL open for
// appending.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts}

	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	s.snapshot = snap

	walPath := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	records, good, err := decodeWAL(raw)
	if err != nil {
		return nil, err
	}
	s.records = records
	s.pending = len(records)

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	// Trim a tolerated truncated tail so the next append starts on a clean
	// frame boundary.
	if int64(good) < int64(len(raw)) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: wal trim: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: wal seek: %w", err)
	}
	s.wal = f
	return s, nil
}

// ReadState loads a state directory read-only: the snapshot payload and the
// decoded WAL records. Followers tail the leader's store with it. The same
// corruption semantics apply, except nothing is trimmed on disk.
func ReadState(dir string) (snapshot []byte, records []Record, err error) {
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: snapshot: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: wal: %w", err)
	}
	records, _, err = decodeWAL(raw)
	if err != nil {
		return nil, nil, err
	}
	return snap, records, nil
}

// decodeWAL parses frames until the bytes run out. good is the offset of
// the last fully-valid frame boundary; bytes past it form a truncated tail
// the caller may trim. A CRC mismatch, bad magic, or oversized length on a
// frame that is followed by further bytes is a torn middle record and
// returns ErrCorrupt.
func decodeWAL(raw []byte) (records []Record, good int, err error) {
	off := 0
	for off < len(raw) {
		rest := raw[off:]
		if len(rest) < frameHdrSize {
			return records, off, nil // truncated tail header
		}
		magic := binary.BigEndian.Uint16(rest)
		length := binary.BigEndian.Uint32(rest[2:])
		sum := binary.BigEndian.Uint32(rest[6:])
		torn := magic != recMagic || length > maxRecordSize
		if !torn && len(rest) < frameHdrSize+int(length) {
			return records, off, nil // truncated tail payload
		}
		var payload []byte
		if !torn {
			payload = rest[frameHdrSize : frameHdrSize+int(length)]
			torn = crc32.ChecksumIEEE(payload) != sum
		}
		if torn {
			// A malformed frame with no valid frame behind it is a torn
			// tail — the same crash footprint as a short write — and is
			// trimmed. One followed by further valid records would silently
			// drop durable state if trimmed, so it must fail loudly.
			if nextFrame(rest) < 0 {
				return records, off, nil
			}
			return nil, 0, fmt.Errorf("%w: offset %d", ErrCorrupt, off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, 0, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		records = append(records, rec)
		off += frameHdrSize + int(length)
		good = off
	}
	return records, good, nil
}

// nextFrame looks past the first (malformed) frame header for another
// plausible frame start; -1 means none, i.e. the malformed bytes are the
// log's tail.
func nextFrame(rest []byte) int {
	for off := 1; off+frameHdrSize <= len(rest); off++ {
		if binary.BigEndian.Uint16(rest[off:]) != recMagic {
			continue
		}
		length := binary.BigEndian.Uint32(rest[off+2:])
		if length > maxRecordSize || off+frameHdrSize+int(length) > len(rest) {
			continue
		}
		payload := rest[off+frameHdrSize : off+frameHdrSize+int(length)]
		if crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(rest[off+6:]) {
			return off
		}
	}
	return -1
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// Snapshot returns the raw snapshot payload loaded at Open (nil if the
// directory had none).
func (s *Store) Snapshot() []byte { return s.snapshot }

// Records returns the WAL records loaded at Open, in append order.
func (s *Store) Records() []Record { return s.records }

// Pending counts the WAL records not yet folded into a snapshot — the
// caller's cue to Checkpoint.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// NeedsCheckpoint reports whether the WAL has grown to the CompactEvery
// threshold.
func (s *Store) NeedsCheckpoint() bool {
	return s.Pending() >= s.opts.CompactEvery
}

// Fsyncs counts the fsync calls issued so far (a metrics source).
func (s *Store) Fsyncs() uint64 { return s.fsyncs.Load() }

// Checkpoints counts completed checkpoints.
func (s *Store) Checkpoints() uint64 { return s.checkpoints.Load() }

// Append marshals v, frames it under kind, writes it to the WAL in one
// write, and fsyncs (unless NoSync). It is the durability point of a state
// change: once Append returns nil the record survives SIGKILL.
func (s *Store) Append(kind string, v any) error {
	if err := s.guard(); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: append %s: %w", kind, err)
	}
	payload, err := json.Marshal(Record{Kind: kind, Data: data})
	if err != nil {
		return fmt.Errorf("store: append %s: %w", kind, err)
	}
	frame := make([]byte, frameHdrSize+len(payload))
	binary.BigEndian.PutUint16(frame, recMagic)
	binary.BigEndian.PutUint32(frame[2:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[6:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHdrSize:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("store: closed")
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: append %s: %w", kind, err)
	}
	if err := s.sync(s.wal); err != nil {
		return fmt.Errorf("store: append %s: %w", kind, err)
	}
	s.pending++
	return nil
}

// Checkpoint folds the current state into a fresh snapshot: state is
// marshaled, written to a temp file, fsynced, renamed over the snapshot,
// the directory is fsynced, and only then is the WAL truncated. A crash at
// any point leaves a readable directory.
func (s *Store) Checkpoint(state any) error {
	if err := s.guard(); err != nil {
		return err
	}
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("store: closed")
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := s.sync(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: checkpoint: wal truncate: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: checkpoint: wal seek: %w", err)
	}
	if err := s.sync(s.wal); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	s.snapshot = payload
	s.pending = 0
	s.checkpoints.Add(1)
	return nil
}

// Sync flushes the WAL file; a no-op under NoSync. Graceful shutdown calls
// it before exiting.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.sync(s.wal)
}

// Close flushes and releases the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.sync(s.wal)
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

func (s *Store) guard() error {
	if s.opts.Guard == nil {
		return nil
	}
	if err := s.opts.Guard(); err != nil {
		return fmt.Errorf("%w: %v", ErrGuarded, err)
	}
	return nil
}

func (s *Store) sync(f *os.File) error {
	if s.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	return nil
}

func (s *Store) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	s.fsyncs.Add(1)
	return nil
}

// DecodeInto unmarshals a record's payload into v — sugar for replay loops.
func (r Record) DecodeInto(v any) error {
	return json.Unmarshal(r.Data, v)
}

// Corrupt reports whether err is the torn-middle-record failure.
func Corrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
