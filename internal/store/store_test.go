package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type fact struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append("fact", fact{N: i, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	if s.Fsyncs() == 0 {
		t.Fatal("no fsyncs counted on a syncing store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart sees every record, in order.
	s2 := openT(t, dir, Options{})
	recs := s2.Records()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Kind != "fact" {
			t.Fatalf("record %d kind = %q", i, r.Kind)
		}
		var f fact
		if err := r.DecodeInto(&f); err != nil {
			t.Fatal(err)
		}
		if f.N != i {
			t.Fatalf("record %d decoded N=%d", i, f.N)
		}
	}
}

func TestCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Append("fact", fact{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(fact{N: 99, S: "state"}); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after checkpoint, want 0", s.Pending())
	}
	if s.Checkpoints() != 1 {
		t.Fatalf("Checkpoints = %d, want 1", s.Checkpoints())
	}
	if err := s.Append("fact", fact{N: 7}); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	s2 := openT(t, dir, Options{})
	var snap fact
	if err := (Record{Data: s2.Snapshot()}).DecodeInto(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.N != 99 || snap.S != "state" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(s2.Records()) != 1 {
		t.Fatalf("post-checkpoint WAL has %d records, want 1", len(s2.Records()))
	}
}

// TestCompactEveryThreshold drives the compaction threshold: below it
// NeedsCheckpoint stays quiet, at it the store asks for a fold, a checkpoint
// silences it again, and an unset knob means the default of 64.
func TestCompactEveryThreshold(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true, CompactEvery: 3})
	for i := 0; i < 2; i++ {
		if err := s.Append("fact", fact{N: i}); err != nil {
			t.Fatal(err)
		}
		if s.NeedsCheckpoint() {
			t.Fatalf("NeedsCheckpoint true at %d pending, threshold 3", s.Pending())
		}
	}
	if err := s.Append("fact", fact{N: 2}); err != nil {
		t.Fatal(err)
	}
	if !s.NeedsCheckpoint() {
		t.Fatalf("NeedsCheckpoint false at %d pending, threshold 3", s.Pending())
	}
	if err := s.Checkpoint(fact{N: 99}); err != nil {
		t.Fatal(err)
	}
	if s.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint true immediately after checkpoint")
	}
	_ = s.Close()

	// A restart counts replayed records as pending: a WAL left past the
	// threshold by a crash asks for compaction right away.
	for i := 0; i < 4; i++ {
		s2 := openT(t, dir, Options{NoSync: true, CompactEvery: 3})
		if err := s2.Append("fact", fact{N: i}); err != nil {
			t.Fatal(err)
		}
		_ = s2.Close()
	}
	s3 := openT(t, dir, Options{NoSync: true, CompactEvery: 3})
	if !s3.NeedsCheckpoint() {
		t.Fatalf("NeedsCheckpoint false after replaying %d records, threshold 3", s3.Pending())
	}

	// The knob unset, the threshold is 64 records.
	s4 := openT(t, dir, Options{NoSync: true})
	for s4.Pending() < 63 {
		if err := s4.Append("fact", fact{}); err != nil {
			t.Fatal(err)
		}
	}
	if s4.NeedsCheckpoint() {
		t.Fatalf("NeedsCheckpoint true at %d pending with CompactEvery unset", s4.Pending())
	}
	if err := s4.Append("fact", fact{}); err != nil {
		t.Fatal(err)
	}
	if !s4.NeedsCheckpoint() {
		t.Fatalf("NeedsCheckpoint false at %d pending with CompactEvery unset", s4.Pending())
	}
}

// TestTruncatedTailTolerated chops the WAL mid-record — the footprint of a
// crash during Append — and expects a clean open that keeps every complete
// record and trims the stub.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Append("fact", fact{N: i, S: "payload-padding-for-length"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()

	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, frameHdrSize + 3} {
		if err := os.WriteFile(walPath, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if got := len(s2.Records()); got != 3 {
			t.Fatalf("cut %d: kept %d records, want 3", cut, got)
		}
		// The stub was trimmed: appends resume on a clean boundary.
		if err := s2.Append("fact", fact{N: 100}); err != nil {
			t.Fatal(err)
		}
		_ = s2.Close()
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s3.Records()); got != 4 {
			t.Fatalf("cut %d: after re-append kept %d records, want 4", cut, got)
		}
		_ = s3.Close()
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornMiddleFailsLoudly corrupts a byte inside an early record while
// later records stay intact; opening must refuse instead of silently
// dropping the durable tail.
func TestTornMiddleFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Append("fact", fact{N: i, S: "abcdefghij"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()

	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHdrSize+4] ^= 0xFF // flip a payload byte of record 0
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over torn middle record: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := ReadState(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadState over torn middle record: err = %v, want ErrCorrupt", err)
	}
}

func TestGuardFencesWrites(t *testing.T) {
	dir := t.TempDir()
	allowed := true
	s := openT(t, dir, Options{Guard: func() error {
		if !allowed {
			return errors.New("lease lost")
		}
		return nil
	}})
	if err := s.Append("fact", fact{N: 1}); err != nil {
		t.Fatal(err)
	}
	allowed = false
	if err := s.Append("fact", fact{N: 2}); !errors.Is(err, ErrGuarded) {
		t.Fatalf("guarded append: err = %v, want ErrGuarded", err)
	}
	if err := s.Checkpoint(fact{N: 2}); !errors.Is(err, ErrGuarded) {
		t.Fatalf("guarded checkpoint: err = %v, want ErrGuarded", err)
	}
	s2 := openT(t, dir, Options{})
	if len(s2.Records()) != 1 {
		t.Fatalf("fenced write landed: %d records, want 1", len(s2.Records()))
	}
}

func TestReadStateTailsLiveStore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Append("fact", fact{N: 1}); err != nil {
		t.Fatal(err)
	}
	// A follower reads while the leader still holds the WAL open.
	_, recs, err := ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("follower saw %d records, want 1", len(recs))
	}
	if err := s.Append("fact", fact{N: 2}); err != nil {
		t.Fatal(err)
	}
	_, recs, err = ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("follower saw %d records after second append, want 2", len(recs))
	}
}

// commitGroup stages facts first..first+n-1 and commits them as one group.
func commitGroup(t *testing.T, s *Store, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := s.Stage("fact", fact{N: i, S: "grouped"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// wantFacts asserts the records decode to facts 0..n-1 in order.
func wantFacts(t *testing.T, what string, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("%s: %d records, want %d", what, len(recs), n)
	}
	for i, r := range recs {
		var f fact
		if err := r.DecodeInto(&f); err != nil {
			t.Fatal(err)
		}
		if r.Kind != "fact" || f.N != i {
			t.Fatalf("%s: record %d = %s %+v", what, i, r.Kind, f)
		}
	}
}

// TestGroupCommitRoundTrip: what is staged becomes durable together, at the
// cost of one write and one fsync, and everything that counts records counts
// a group's members.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactEvery: 5})
	if err := s.Commit(); err != nil || s.Fsyncs() != 0 || s.Commits() != 0 {
		t.Fatalf("empty Commit: err %v, %d fsyncs, %d commits; want a no-op", err, s.Fsyncs(), s.Commits())
	}
	for i := 0; i < 3; i++ {
		if err := s.Stage("fact", fact{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 0 || s.Fsyncs() != 0 || len(readWAL(t, dir)) != 0 {
		t.Fatalf("staging touched the store: pending %d, fsyncs %d, %d WAL bytes", s.Pending(), s.Fsyncs(), len(readWAL(t, dir)))
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 3 || s.Fsyncs() != 1 || s.Commits() != 1 {
		t.Fatalf("after one commit of 3: pending %d, fsyncs %d, commits %d", s.Pending(), s.Fsyncs(), s.Commits())
	}
	if s.NeedsCheckpoint() {
		t.Fatal("NeedsCheckpoint at 3 of 5 records")
	}
	// Append commits what it finds staged with its own record.
	if err := s.Stage("fact", fact{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("fact", fact{N: 4}); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 5 || s.Fsyncs() != 2 || !s.NeedsCheckpoint() {
		t.Fatalf("after the second group: pending %d, fsyncs %d, NeedsCheckpoint %v", s.Pending(), s.Fsyncs(), s.NeedsCheckpoint())
	}
	_, tailed, err := ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantFacts(t, "ReadState", tailed, 5)
	_ = s.Close()

	s2 := openT(t, dir, Options{CompactEvery: 5})
	wantFacts(t, "reopened", s2.Records(), 5)
	if s2.Pending() != 5 || !s2.NeedsCheckpoint() {
		t.Fatalf("reopened: pending %d, NeedsCheckpoint %v", s2.Pending(), s2.NeedsCheckpoint())
	}
}

// TestTornGroupIsTrimmedWhole cuts the last group at every one of its bytes:
// as the log's tail it is trimmed whole — no member of a torn commit survives
// alone — and the next commit lands on a clean boundary; with a valid frame
// behind it the same cut is a torn middle and fails loudly.
func TestTornGroupIsTrimmedWhole(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	commitGroup(t, s, 0, 2)
	kept := len(readWAL(t, dir))
	commitGroup(t, s, 2, 3)
	_ = s.Close()
	raw := readWAL(t, dir)

	// A valid frame to put behind the cut.
	sideDir := t.TempDir()
	side := openT(t, sideDir, Options{NoSync: true})
	commitGroup(t, side, 5, 1)
	_ = side.Close()
	follower := readWAL(t, sideDir)

	walPath := filepath.Join(dir, walFile)
	for cut := kept + 1; cut < len(raw); cut++ {
		if err := os.WriteFile(walPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, tailed, err := ReadState(dir)
		if err != nil {
			t.Fatalf("cut at %d: ReadState: %v", cut, err)
		}
		wantFacts(t, "ReadState over the cut", tailed, 2)
		s2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		wantFacts(t, "open over the cut", s2.Records(), 2)
		if got := len(readWAL(t, dir)); got != kept {
			t.Fatalf("cut at %d: WAL trimmed to %d bytes, want the last whole group's end %d", cut, got, kept)
		}
		commitGroup(t, s2, 2, 1)
		_ = s2.Close()
		s3, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut at %d: reopen after the next commit: %v", cut, err)
		}
		wantFacts(t, "after the next commit", s3.Records(), 3)
		_ = s3.Close()

		torn := append(append([]byte(nil), raw[:cut]...), follower...)
		if err := os.WriteFile(walPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d with a valid frame behind it: open err = %v, want ErrCorrupt", cut, err)
		}
		if _, _, err := ReadState(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d with a valid frame behind it: ReadState err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestOneRecordFramesStillReplay: testdata/wal-one-record-frames.log was
// written by Append before commits were grouped, one frame a record. It
// replays, and grouped commits follow it in the same file.
func TestOneRecordFramesStillReplay(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "wal-one-record-frames.log"))
	if err != nil {
		t.Fatal(err)
	}
	if magic := uint16(old[0])<<8 | uint16(old[1]); magic != recMagic {
		t.Fatalf("testdata starts with magic %#x, want the one-record frame's %#x", magic, recMagic)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	wantFacts(t, "one-record frames", s.Records(), 4)
	if s.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", s.Pending())
	}
	commitGroup(t, s, 4, 2)
	_ = s.Close()
	s2 := openT(t, dir, Options{})
	wantFacts(t, "one-record frames then a group", s2.Records(), 6)
}

// TestStagedRecordsAreNotDurable: a record that was staged and never committed
// is in no file, so neither a follower nor a restart sees it.
func TestStagedRecordsAreNotDurable(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commitGroup(t, s, 0, 2)
	if err := s.Stage("fact", fact{N: 2}); err != nil {
		t.Fatal(err)
	}
	_, tailed, err := ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantFacts(t, "ReadState beside a staged record", tailed, 2)
	_ = s.Close() // flushes the file, not the stage
	s2 := openT(t, dir, Options{})
	wantFacts(t, "reopened", s2.Records(), 2)
}

// TestRefusedCommitWritesNothing: the guard refuses a commit as a whole — the
// file keeps its bytes — and what was staged for it does not ride on a later
// commit the guard lets through.
func TestRefusedCommitWritesNothing(t *testing.T) {
	dir := t.TempDir()
	allowed := true
	s := openT(t, dir, Options{Guard: func() error {
		if !allowed {
			return errors.New("lease lost")
		}
		return nil
	}})
	commitGroup(t, s, 0, 2)
	before := readWAL(t, dir)
	fsyncs := s.Fsyncs()

	allowed = false
	for i := 0; i < 3; i++ {
		if err := s.Stage("fact", fact{N: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); !errors.Is(err, ErrGuarded) {
		t.Fatalf("guarded commit: err = %v, want ErrGuarded", err)
	}
	if after := readWAL(t, dir); string(after) != string(before) {
		t.Fatalf("refused commit changed the WAL: %d bytes, were %d", len(after), len(before))
	}
	if s.Pending() != 2 || s.Fsyncs() != fsyncs {
		t.Fatalf("refused commit: pending %d fsyncs %d, want 2 and %d", s.Pending(), s.Fsyncs(), fsyncs)
	}

	allowed = true
	commitGroup(t, s, 2, 1)
	_ = s.Close()
	s2 := openT(t, dir, Options{})
	wantFacts(t, "after the refusal", s2.Records(), 3)
}

// TestCheckpointDropsStagedRecords: the checkpointed state supersedes what is
// staged as it does what is in the WAL, so a checkpoint drops both.
func TestCheckpointDropsStagedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	commitGroup(t, s, 0, 2)
	if err := s.Stage("fact", fact{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(fact{N: 99}); err != nil {
		t.Fatal(err)
	}
	commits := s.Commits()
	if err := s.Commit(); err != nil || s.Commits() != commits || s.Pending() != 0 {
		t.Fatalf("Commit after the checkpoint: err %v, %d new commits, pending %d; want nothing left to write",
			err, s.Commits()-commits, s.Pending())
	}
	_ = s.Close()
	s2 := openT(t, dir, Options{})
	if len(s2.Records()) != 0 {
		t.Fatalf("%d records behind the checkpoint, want 0", len(s2.Records()))
	}
}
