// Package store is the daemon's crash-safe persistence layer: a JSON
// snapshot plus a checksummed append-only write-ahead log, both in one
// state directory. The medic stages a record per state change, commits what
// one reconcile pass staged as one group, folds the log into a fresh snapshot
// every so often (Checkpoint), and on restart replays WAL-over-snapshot to
// resume exactly where the dead process stopped — the decoupling of daemon
// state from daemon lifetime that the openperouter resiliency design applies
// to forwarding state.
//
// Crash-consistency invariants:
//
//   - Stage only buffers in memory. Every Commit is one write(2) of one
//     length-prefixed, CRC-framed group holding every record staged since
//     the last one, followed (by default) by one fsync: a group is either
//     fully durable or cleanly absent, so a crash leaves whole commits or a
//     torn tail, never a record without the ones staged beside it. Append is
//     Stage plus Commit.
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
// Options.Guard to their elector's leadership check, and every Commit and
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

	// A WAL frame is [magic u16][payload length u32][payload CRC32 u32][payload].
	// groupMagic marks the frame Commit writes: its payload is the group's
	// records back to back, each [length u32][Record JSON]. recMagic marks the
	// frame Append wrote before commits were grouped: its payload is one Record
	// JSON. It is still read, never written.
	recMagic     = uint16(0xA17E)
	groupMagic   = uint16(0xA17F)
	frameHdrSize = 2 + 4 + 4
	memberHdr    = 4
	// maxRecordSize bounds one frame's payload; larger lengths in a header
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
	// NoSync skips the fsync after each commit and checkpoint. Tests use it
	// for speed; a production daemon must not.
	NoSync bool
	// Guard, when set, is consulted before every Commit and Checkpoint; a
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
	// frame is the group under construction, reused from commit to commit:
	// room for the header, then the staged records as they go to disk.
	frame  []byte
	staged int // records in frame

	fsyncs      atomic.Uint64
	commits     atomic.Uint64
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
	s := &Store{dir: dir, opts: opts, frame: make([]byte, frameHdrSize, 4096)}

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
	// Trim a tolerated truncated tail so the next commit starts on a clean
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

// decodeWAL parses frames until the bytes run out, flattening each group into
// its records. good is the offset of the last fully-valid frame boundary;
// bytes past it form a torn tail — a frame cut short, or malformed with no
// valid frame behind it: the footprint of a crash mid-commit — which the
// caller may trim, whole group and all. The same bytes followed by a valid
// frame are a torn middle: trimming would silently drop durable state, so
// that returns ErrCorrupt. No length read from the bytes sizes anything before
// it has been checked against the bytes actually present.
func decodeWAL(raw []byte) (records []Record, good int, err error) {
	for off := 0; off < len(raw); off = good {
		rest := raw[off:]
		magic, payload, ok := validFrame(rest)
		if !ok {
			if nextFrame(rest) < 0 {
				return records, off, nil
			}
			return nil, 0, fmt.Errorf("%w: offset %d", ErrCorrupt, off)
		}
		if magic == recMagic {
			records, err = appendRecord(records, payload)
		} else {
			records, err = appendGroup(records, payload)
		}
		if err != nil {
			// A frame that passed its checksum and does not parse was written
			// wrong, not torn.
			return nil, 0, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		good = off + frameHdrSize + len(payload)
	}
	return records, good, nil
}

// appendGroup decodes a group frame's payload: records back to back, each
// [length u32][Record JSON].
func appendGroup(records []Record, payload []byte) ([]Record, error) {
	for len(payload) > 0 {
		if len(payload) < memberHdr {
			return nil, errors.New("group ends inside a record header")
		}
		n := binary.BigEndian.Uint32(payload)
		payload = payload[memberHdr:]
		if uint64(n) > uint64(len(payload)) {
			return nil, fmt.Errorf("record of %d bytes with %d left in its group", n, len(payload))
		}
		var err error
		if records, err = appendRecord(records, payload[:n]); err != nil {
			return nil, err
		}
		payload = payload[n:]
	}
	return records, nil
}

func appendRecord(records []Record, raw []byte) ([]Record, error) {
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	return append(records, rec), nil
}

// validFrame reports whether b starts with a whole frame — known magic, a
// length that fits what is there, matching checksum — and returns its payload.
func validFrame(b []byte) (magic uint16, payload []byte, ok bool) {
	if len(b) < frameHdrSize {
		return 0, nil, false
	}
	magic = binary.BigEndian.Uint16(b)
	length := binary.BigEndian.Uint32(b[2:])
	if (magic != recMagic && magic != groupMagic) || length > maxRecordSize || uint64(length) > uint64(len(b)-frameHdrSize) {
		return 0, nil, false
	}
	payload = b[frameHdrSize : frameHdrSize+int(length)]
	return magic, payload, crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(b[6:])
}

// nextFrame looks past the first (malformed) frame header for another
// valid frame; -1 means none, i.e. the malformed bytes are the log's tail.
func nextFrame(rest []byte) int {
	for off := 1; off+frameHdrSize <= len(rest); off++ {
		if _, _, ok := validFrame(rest[off:]); ok {
			return off
		}
	}
	return -1
}

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

// Commits counts the groups written so far — one per Commit that had
// anything staged, Append's included.
func (s *Store) Commits() uint64 { return s.commits.Load() }

// Stage marshals v under kind into the group the next Commit writes. It
// touches no file: a staged record is not durable, is not counted by Pending,
// and is not seen by ReadState, until that Commit returns nil.
func (s *Store) Stage(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: stage %s: %w", kind, err)
	}
	tag, _ := json.Marshal(kind) // a string always marshals
	s.mu.Lock()
	defer s.mu.Unlock()
	// The Record's JSON, spelled out so that v is marshaled once and lands
	// in the frame it goes to disk in.
	at := len(s.frame)
	s.frame = append(s.frame, 0, 0, 0, 0)
	s.frame = append(s.frame, `{"kind":`...)
	s.frame = append(s.frame, tag...)
	s.frame = append(s.frame, `,"data":`...)
	s.frame = append(s.frame, data...)
	s.frame = append(s.frame, '}')
	binary.BigEndian.PutUint32(s.frame[at:], uint32(len(s.frame)-at-memberHdr))
	s.staged++
	return nil
}

// Commit writes everything staged since the last Commit as one group — one
// write, one fsync (unless NoSync) — and is the durability point of all of it:
// once Commit returns nil the records survive SIGKILL, together or not at all.
// With nothing staged it does nothing. A Commit that fails, refused by the
// guard or by the disk, drops what was staged: the caller's next records carry
// absolute state, and a refused writer's records must never land later.
func (s *Store) Commit() error {
	refused := s.guard()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged == 0 {
		return nil
	}
	frame, staged := s.frame, s.staged
	s.frame, s.staged = s.frame[:frameHdrSize], 0
	if refused != nil {
		return refused
	}
	if s.wal == nil {
		return errors.New("store: closed")
	}
	payload := frame[frameHdrSize:]
	if len(payload) > maxRecordSize {
		return fmt.Errorf("store: commit: group of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordSize)
	}
	binary.BigEndian.PutUint16(frame, groupMagic)
	binary.BigEndian.PutUint32(frame[2:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[6:], crc32.ChecksumIEEE(payload))
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: commit: %w", err)
	}
	if err := s.sync(s.wal); err != nil {
		return fmt.Errorf("store: commit: %w", err)
	}
	s.pending += staged
	s.commits.Add(1)
	return nil
}

// Append is Stage followed by Commit: v, and anything staged before it, is
// durable once it returns nil.
func (s *Store) Append(kind string, v any) error {
	if err := s.Stage(kind, v); err != nil {
		return err
	}
	return s.Commit()
}

// Checkpoint folds the current state into a fresh snapshot: state is
// marshaled, written to a temp file, fsynced, renamed over the snapshot,
// the directory is fsynced, and only then is the WAL truncated. A crash at
// any point leaves a readable directory. state supersedes every record so
// far, so records staged and not yet committed are dropped with the WAL's,
// not committed first: the caller's state must already reflect them.
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
	s.frame, s.staged = s.frame[:frameHdrSize], 0
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
