package medic

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmedic/internal/monitor"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// idleStoredMedic opens the state directory with opts and builds a medic over
// it, the recorder stubbing the wire and holding every call to the fencing
// invariant. The loop is not started.
func idleStoredMedic(t *testing.T, dir string, rec *recorder, opts store.Options, onFenced func()) (*Medic, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	rec.watch(t, dir)
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:      dep,
		Flows:    flows,
		Addrs:    map[topo.NodeID]string{0: "stubbed"},
		Pusher:   rec.push,
		Restorer: rec.restore,
		Store:    st,
		OnFenced: onFenced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// newStoredMedic builds a medic over an open store in dir, with the
// recorder stubbing the wire, and starts it.
func newStoredMedic(t *testing.T, dir string, rec *recorder, compactEvery int) (*Medic, *store.Store, chan monitor.Event) {
	t.Helper()
	m, st := idleStoredMedic(t, dir, rec, store.Options{NoSync: true, CompactEvery: compactEvery}, nil)
	events := make(chan monitor.Event, 8)
	m.Start(events)
	t.Cleanup(m.Stop)
	return m, st, events
}

// wantResumedAfterCrash asserts where a daemon resumes over a state directory
// its predecessor did not flush: above everything persisted, and no further
// above it than one reservation.
func wantResumedAfterCrash(t *testing.T, resumed, persisted uint64) {
	t.Helper()
	if resumed <= persisted || resumed > persisted+reserveBlock+1 {
		t.Fatalf("resumed epoch = %d, want above the persisted %d and at most %d (one reservation past it)",
			resumed, persisted, persisted+reserveBlock+1)
	}
}

// TestSnapshotReplayRoundTrip is the determinism property the crash-safety
// design rests on: for any sequence of applied events, a daemon restarted
// over the dead one's state directory reports byte-for-byte the same
// achieved mapping and flow programmability, resumes the failure set and
// event-log numbering, and bumps the epoch past everything persisted — by no
// more than the reservation a crash leaves unused.
func TestSnapshotReplayRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		events []monitor.Event
		failed []int
	}{
		{"single failure", []monitor.Event{{Seq: 1, Failed: []int{3}}}, []int{3}},
		{"correlated pair", []monitor.Event{{Seq: 1, Failed: []int{3, 4}}}, []int{3, 4}},
		{"fail then partial recover", []monitor.Event{
			{Seq: 1, Failed: []int{2, 3}},
			{Seq: 2, Recovered: []int{2}},
		}, []int{3}},
		{"successive failures", []monitor.Event{
			{Seq: 1, Failed: []int{1}},
			{Seq: 2, Failed: []int{4}},
		}, []int{1, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec := &recorder{}
			m1, _, events := newStoredMedic(t, dir, rec, 0)
			var before Status
			for i, ev := range tc.events {
				ev.At = time.Now()
				events <- ev
				before = waitStatus(t, m1, func(s Status) bool {
					return s.Converged && s.Epoch == uint64(i+1)
				})
			}
			// The daemon dies; the WAL alone carries the state.
			m1.Stop()

			m2, _, _ := newStoredMedic(t, dir, &recorder{}, 0)
			after := m2.Status()

			wantResumedAfterCrash(t, after.Epoch, before.Epoch)
			if after.Epoch != before.EpochReserved+1 {
				t.Fatalf("resumed epoch = %d, want one above the dead daemon's reservation through %d",
					after.Epoch, before.EpochReserved)
			}
			if len(after.Failed) != len(tc.failed) {
				t.Fatalf("resumed Failed = %v, want %v", after.Failed, tc.failed)
			}
			for i, j := range tc.failed {
				if after.Failed[i] != j {
					t.Fatalf("resumed Failed = %v, want %v", after.Failed, tc.failed)
				}
			}
			mustJSONEqual(t, "mapping", before.Mapping, after.Mapping)
			mustJSONEqual(t, "flow programmability", before.FlowProg, after.FlowProg)
			if before.MinProg != after.MinProg || before.TotalProg != after.TotalProg ||
				before.RecoveredFlows != after.RecoveredFlows || before.OfflineFlows != after.OfflineFlows {
				t.Fatalf("plan metrics drifted: before %+v after %+v", before, after)
			}

			// The event log resumes its numbering: the resume entry itself
			// continues the dead daemon's sequence instead of restarting at 1.
			last := after.Events[len(after.Events)-1]
			if last.Kind != KindResume {
				t.Fatalf("last restored log entry is %q, want resume marker", last.Kind)
			}
			prevMax := before.Events[len(before.Events)-1].Seq
			if last.Seq != prevMax+1 {
				t.Fatalf("resume entry seq = %d, want %d (continuing the dead daemon's log)",
					last.Seq, prevMax+1)
			}
		})
	}
}

func mustJSONEqual(t *testing.T, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s not byte-identical across restart:\n before: %s\n after:  %s", what, ja, jb)
	}
}

// TestCheckpointFoldsDaemonWAL drives enough reconciles to cross the store's
// CompactEvery and asserts the WAL folded into a snapshot — and that a
// restart over the checkpointed directory still restores the same state.
func TestCheckpointFoldsDaemonWAL(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	m1, st1, events := newStoredMedic(t, dir, rec, 4)

	toggles := []monitor.Event{
		{Seq: 1, Failed: []int{3}},
		{Seq: 2, Failed: []int{4}},
		{Seq: 3, Recovered: []int{4}},
		{Seq: 4, Failed: []int{4}},
	}
	for i, ev := range toggles {
		ev.At = time.Now()
		events <- ev
		waitStatus(t, m1, func(s Status) bool { return s.Converged && s.Epoch == uint64(i+1) })
	}
	if st1.Checkpoints() == 0 {
		t.Fatalf("no checkpoint after %d reconciles with CompactEvery=4", len(toggles))
	}
	before := m1.Status()
	m1.Stop()
	if err := m1.FlushState(); err != nil {
		t.Fatal(err)
	}
	if st1.Pending() != 0 {
		t.Fatalf("%d WAL records pending after FlushState, want 0", st1.Pending())
	}

	m2, _, _ := newStoredMedic(t, dir, &recorder{}, 0)
	after := m2.Status()
	// A flushed daemon gave the rest of its reservation back: no block is
	// skipped.
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch after checkpointed restart = %d, want %d", after.Epoch, before.Epoch+1)
	}
	mustJSONEqual(t, "mapping", before.Mapping, after.Mapping)
	if len(after.Failed) != 2 || after.Failed[0] != 3 || after.Failed[1] != 4 {
		t.Fatalf("Failed = %v, want [3 4]", after.Failed)
	}
}

// TestStoreCompactEveryBoundsReplay: CompactEvery (store.Options) is the one
// fold threshold, so the WAL a crashed daemon leaves behind — and hence
// restart replay work — stays bounded by it plus one reconcile's records.
func TestStoreCompactEveryBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	m1, st, events := newStoredMedic(t, dir, &recorder{}, 2)

	toggles := []monitor.Event{
		{Seq: 1, Failed: []int{3}},
		{Seq: 2, Failed: []int{4}},
		{Seq: 3, Recovered: []int{4}},
	}
	for i, ev := range toggles {
		ev.At = time.Now()
		events <- ev
		waitStatus(t, m1, func(s Status) bool { return s.Converged && s.Epoch == uint64(i+1) })
	}
	if st.Checkpoints() == 0 {
		t.Fatal("store.CompactEvery=2 never forced a checkpoint")
	}
	before := m1.Status()
	m1.Stop() // crash, no FlushState: the bounded WAL alone carries the tail

	m2, _, _ := newStoredMedic(t, dir, &recorder{}, 0)
	after := m2.Status()
	wantResumedAfterCrash(t, after.Epoch, before.Epoch)
	if len(after.Failed) != 1 || after.Failed[0] != 3 {
		t.Fatalf("Failed = %v, want [3]", after.Failed)
	}
	mustJSONEqual(t, "mapping", before.Mapping, after.Mapping)
}

// TestGuardedStoreDegradesNotFatal: what a medic whose store guard refuses
// its writes (the deposed-leader path) still does depends on one thing only,
// whether the epoch it is about to sign is one it durably reserved.
func TestGuardedStoreDegradesNotFatal(t *testing.T) {
	// Inside the reservation it keeps reconciling, with no store write at all
	// — recovery outranks journaling — and surfaces the degradation in
	// Status; its successor's fence refuses it on the wire.
	t.Run("inside the reservation", func(t *testing.T) {
		var lost atomic.Bool
		rec := &recorder{}
		m, st := idleStoredMedic(t, t.TempDir(), rec, store.Options{NoSync: true, Guard: func() error {
			if lost.Load() {
				return errors.New("lease lost")
			}
			return nil
		}}, func() { t.Error("OnFenced fired for an epoch inside the reservation") })
		events := make(chan monitor.Event, 1)
		m.Start(events)
		t.Cleanup(m.Stop)
		waitStatus(t, m, func(s Status) bool { return s.EpochReserved >= 1 })
		pending := st.Pending()
		lost.Store(true)

		events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
		waitStatus(t, m, func(s Status) bool {
			return s.Converged && s.Epoch == 1 && s.PersistFailures > 0
		})
		if st.Pending() != pending {
			t.Fatalf("guarded store went from %d to %d records", pending, st.Pending())
		}
		if n := len(rec.pushes); n != 1 {
			t.Fatalf("%d pushes, want 1", n)
		}
	})

	// Past it — here: the guard refused the very first reservation — it signs
	// nothing: the successor resumed right above the last durable reservation,
	// and this epoch would land in its range.
	t.Run("reservation refused", func(t *testing.T) {
		var fenced atomic.Int64
		rec := &recorder{}
		m, st := idleStoredMedic(t, t.TempDir(), rec, store.Options{NoSync: true,
			Guard: func() error { return errors.New("lease lost") },
		}, func() { fenced.Add(1) })
		events := make(chan monitor.Event, 1)
		m.Start(events)

		events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
		stt := waitStatus(t, m, func(s Status) bool { return hasLogKind(s, KindFenced, "epoch 1: nothing pushed") })
		m.Stop()
		if stt.Converged || stt.EpochReserved != 0 || stt.PersistFailures == 0 {
			t.Fatalf("status after the refusal: converged %v, reserved through %d, %d persist failures",
				stt.Converged, stt.EpochReserved, stt.PersistFailures)
		}
		if n, r := len(rec.pushes), len(rec.restores); n != 0 || r != 0 {
			t.Fatalf("%d pushes and %d restores signed with an unreserved epoch", n, r)
		}
		if got := fenced.Load(); got != 1 {
			t.Fatalf("OnFenced fired %d times, want once", got)
		}
		if st.Pending() != 0 {
			t.Fatalf("guarded store accepted %d records", st.Pending())
		}
	})

	// The documented exception: the reservation fails for any other reason — a
	// disk fault under a lease that still holds, so no successor to collide
	// with. The daemon stays degraded-but-recovering, as it always was. (The
	// stub's reservation check is off: this is the one path exempt from it.)
	t.Run("disk fault", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		dep, flows := testFixture(t)
		rec := &recorder{}
		m, err := New(Config{
			Dep:      dep,
			Flows:    flows,
			Addrs:    map[topo.NodeID]string{0: "stubbed"},
			Pusher:   rec.push,
			Restorer: rec.restore,
			Store:    st,
			OnFenced: func() { t.Error("OnFenced fired for a disk fault") },
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = st.Close() // every commit now fails, and not with ErrGuarded
		events := make(chan monitor.Event, 1)
		m.Start(events)
		t.Cleanup(m.Stop)
		events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
		stt := waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 1 })
		if stt.PersistFailures == 0 || stt.EpochReserved != 0 {
			t.Fatalf("after a failed reservation: %d persist failures, reserved through %d", stt.PersistFailures, stt.EpochReserved)
		}
	})
}

// TestStatusUnderConcurrentReconcile hammers the read surface (Status and
// the metrics renderer) from many goroutines while the loop reconciles a
// stream of events — the race detector is the assertion.
func TestStatusUnderConcurrentReconcile(t *testing.T) {
	rec := &recorder{}
	m, events := newTestMedic(t, rec)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.Status()
				if st.Epoch > 0 && st.Events == nil {
					t.Error("status with nonzero epoch but nil events")
					return
				}
				sink.Reset()
				_, _ = m.Metrics().WriteTo(&sink)
				_ = m.FenceGen()
			}
		}()
	}

	seq := uint64(0)
	for round := 0; round < 10; round++ {
		seq++
		events <- monitor.Event{Seq: seq, Failed: []int{3}, At: time.Now()}
		seq++
		events <- monitor.Event{Seq: seq, Recovered: []int{3}, At: time.Now()}
		m.SetRole("leader", uint64(round+1))
		waitStatus(t, m, func(s Status) bool { return s.Epoch == seq })
	}
	close(stop)
	wg.Wait()
}

// TestStatusEpochNotAheadOfDetectEntry pins the order in which a pass becomes
// visible: a status — live or replayed from the store — that shows epoch N
// also shows N's detect entry. The live one gets the entry before the epoch;
// the store gets both in the pass's one commit, so a follower sees neither
// or both. The store's Guard parks the pass inside that commit, so the test
// inspects both read surfaces at the one point where the two differ; no
// sleeps.
func TestStatusEpochNotAheadOfDetectEntry(t *testing.T) {
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var park atomic.Bool
	rec := &recorder{}
	m, _ := idleStoredMedic(t, dir, rec, store.Options{NoSync: true, Guard: func() error {
		if park.Load() {
			entered <- struct{}{}
			<-release
		}
		return nil
	}}, nil)
	// What Start would have done before the first event.
	if _, _, err := m.Fence(); err != nil {
		t.Fatal(err)
	}
	park.Store(true)

	check := func(when string) (live, tailed Status) {
		t.Helper()
		live = m.Status()
		tailed, err := ReadStatus(dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]Status{"Status": live, "ReadStatus": tailed} {
			if s.Epoch > 0 && !hasLogKind(s, KindDetect, "epoch 1:") {
				t.Errorf("%s: %s shows epoch %d without its detect entry (events: %+v)", when, name, s.Epoch, s.Events)
			}
		}
		return live, tailed
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.apply(monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()})
		m.reconcile()
	}()
	commits := 0
	for parked := true; parked; {
		select {
		case <-entered:
			commits++
			// The pass is over for everyone watching the daemon, and has not
			// begun for anyone watching the store.
			live, tailed := check(fmt.Sprintf("parked in WAL commit %d", commits))
			if live.Epoch != 1 || !live.Converged || !hasLogKind(live, KindConverged, "epoch 1:") {
				t.Errorf("parked in the commit: live status is epoch %d converged %v, want the finished pass", live.Epoch, live.Converged)
			}
			if tailed.Epoch != 0 || len(tailed.Failed) != 0 {
				t.Errorf("parked in the commit: the store already shows epoch %d failed %v", tailed.Epoch, tailed.Failed)
			}
			release <- struct{}{}
		case <-done:
			parked = false
		}
	}
	if commits != 1 {
		t.Fatalf("the pass made %d WAL commits, want 1", commits)
	}
	_, tailed := check("after the pass")
	if tailed.Epoch != 1 || !tailed.Converged || !hasLogKind(tailed, KindConverged, "epoch 1:") {
		t.Fatalf("after the commit ReadStatus shows epoch %d converged %v, want the whole pass", tailed.Epoch, tailed.Converged)
	}
}

// TestEventLogRestoreContinuesSeq: a ring restored from persisted state
// numbers its next entry after the durable counter — never renumbering
// from 1 — including when the counter ran ahead of the retained window.
func TestEventLogRestoreContinuesSeq(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.addf(KindDetect, "entry %d", i)
	}
	seq, entries := l.seq, l.snapshot()
	if seq != 10 || len(entries) != 4 {
		t.Fatalf("state = seq %d, %d entries; want 10, 4", seq, len(entries))
	}

	fresh := newEventLog(4)
	fresh.restoreRing(seq, entries)
	fresh.addf(KindResume, "restarted")
	got := fresh.snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	if got[3].Seq != 11 || got[3].Msg != "restarted" {
		t.Fatalf("first post-restore entry = %+v, want seq 11", got[3])
	}
	if got[0].Msg != "entry 7" {
		t.Fatalf("oldest retained entry = %q, want the window shifted by one", got[0].Msg)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-monotone seqs after restore: %+v", got)
		}
	}

	// A ring smaller than the persisted window keeps the newest entries.
	small := newEventLog(2)
	small.restoreRing(seq, entries)
	small.addf(KindResume, "restarted")
	got = small.snapshot()
	if len(got) != 2 || got[1].Seq != 11 || got[0].Seq != 10 {
		t.Fatalf("small ring restore window wrong: %+v", got)
	}
}
