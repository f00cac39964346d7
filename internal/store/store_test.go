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
	if _, err := Open(dir, Options{}); !Corrupt(err) {
		t.Fatalf("open over torn middle record: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := ReadState(dir); !Corrupt(err) {
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
