package medic

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// These tests pin the two halves of "no disk on the recovery path": nothing
// is fsynced between a detector event and the push it leads to, and the
// guarantee the fsync in front of the push used to give — a successor resumes
// above every epoch its predecessor signed — holds at every point a crash can
// cut the WAL.

// TestNoFsyncBetweenEventAndPush drives episodes by hand over a syncing store,
// with a Pusher that reads the store's fsync counter on entry: whatever shape
// the failure arrives in, the count has not moved since the event was applied,
// and a whole fail / recover / revive / fail-back episode costs one commit a
// pass.
func TestNoFsyncBetweenEventAndPush(t *testing.T) {
	rec := &recorder{}
	m, st := idleStoredMedic(t, t.TempDir(), rec, store.Options{CompactEvery: 1 << 20}, nil)
	var atPush []uint64
	m.cfg.Pusher = func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
		sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
		atPush = append(atPush, st.Fsyncs())
		return rec.push(addrs, flows, inst, sol, opts)
	}
	// The reservation a started loop makes before its first event.
	if _, _, err := m.Fence(); err != nil {
		t.Fatal(err)
	}
	if got := st.Fsyncs(); got != 1 {
		t.Fatalf("the first reservation cost %d fsyncs, want 1", got)
	}

	seq := uint64(0)
	event := func(failed, recovered []int) monitor.Event {
		seq++
		return monitor.Event{Seq: seq, Failed: failed, Recovered: recovered, At: time.Now()}
	}
	// pass applies the events as one batch and reconciles; it returns the
	// fsync count the events were applied at.
	pass := func(evs ...monitor.Event) uint64 {
		at := st.Fsyncs()
		for _, ev := range evs {
			m.apply(ev)
		}
		m.reconcile()
		return at
	}
	wantPushAt := func(what string, at uint64) {
		t.Helper()
		if len(atPush) == 0 {
			t.Fatalf("%s: no push", what)
		}
		if got := atPush[len(atPush)-1]; got != at {
			t.Fatalf("%s: %d fsync(s) between the event and its push", what, got-at)
		}
		atPush = nil
	}

	episode := st.Fsyncs()
	wantPushAt("depth 1", pass(event([]int{4}, nil)))
	pass(event(nil, []int{4}))
	if got := st.Fsyncs() - episode; got != 2 {
		t.Fatalf("fail, recover, revive, fail back: %d fsyncs, want one per pass (2)", got)
	}
	if !m.Status().Ideal {
		t.Fatalf("not ideal after the fail-back: %+v", m.Status())
	}

	wantPushAt("batched {3,4}", pass(event([]int{3}, nil), event([]int{4}, nil)))
	pass(event(nil, []int{3, 4}))

	wantPushAt("split, {3}", pass(event([]int{3}, nil)))
	wantPushAt("split, then {4}", pass(event([]int{4}, nil)))
	pass(event(nil, []int{3, 4}))

	if st.Checkpoints() != 0 {
		t.Fatalf("%d checkpoints; the fsync counts above assume none", st.Checkpoints())
	}
	if passes, commits := uint64(7), st.Commits(); commits != passes+1 || st.Fsyncs() != commits {
		t.Fatalf("%d commits and %d fsyncs for %d passes and one reservation", commits, st.Fsyncs(), passes)
	}

	var out strings.Builder
	if _, err := m.Metrics().WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pmedicd_wal_commits_total 8\n",
		"pmedicd_wal_commit_duration_seconds_count 8\n",
		"pmedicd_epoch_reserved 64\n",
		"pmedicd_reconcile_duration_seconds_count 7\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
		}
	}
	if got := m.Status().EpochReserved; got != 64 {
		t.Fatalf("Status.EpochReserved = %d, want 64", got)
	}
}

// TestSuccessorResumesAboveReservation kills a leader at the worst moment the
// new ordering allows: its push has been accepted by every agent, and the pass
// that made it never reached the store. The successor learns nothing of the
// pass — and still resumes, and fences, above every generation any agent
// accepted, because the epoch was reserved before it was signed.
func TestSuccessorResumesAboveReservation(t *testing.T) {
	s := newLiveStack(t, 7)
	dir := t.TempDir()
	pushed, crash := make(chan struct{}), make(chan struct{})
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m, err := New(Config{
		Dep:   s.dep,
		Flows: s.flows,
		Addrs: s.addrs,
		Net:   s.net,
		Push:  sdnsim.PushOptions{Seed: 5},
		Store: st,
		Pusher: func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
			sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
			rep, err := sdnsim.PushRecoveryResilient(addrs, flows, inst, sol, opts)
			close(pushed)
			<-crash // the process dies here: nothing after the push ever runs
			return rep, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan monitor.Event, 1)
	m.Start(events)
	defer m.Stop()
	defer close(crash)

	if err := s.net.StopController(3); err != nil {
		t.Fatal(err)
	}
	events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
	<-pushed

	var accepted uint64
	for _, a := range s.agents {
		if gen, ok := a.GenerationID(); ok && gen > accepted {
			accepted = gen
		}
	}
	if accepted/genStride != 1 {
		t.Fatalf("agents accepted generation %d, want one of epoch 1", accepted)
	}

	// The successor opens what is durable at this instant.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2, err := New(Config{Dep: s.dep, Flows: s.flows, Addrs: s.addrs, Net: s.net, Push: sdnsim.PushOptions{Seed: 5}, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	resumed := m2.Status()
	if len(resumed.Failed) != 0 || hasLogKind(resumed, KindDetect, "") {
		t.Fatalf("the successor knows of a pass that never committed: failed %v, events %+v", resumed.Failed, resumed.Events)
	}
	if resumed.Epoch != reserveBlock+1 {
		t.Fatalf("successor resumed at epoch %d, want %d: one above the dead leader's reservation", resumed.Epoch, reserveBlock+1)
	}
	if m2.FenceGen() <= accepted {
		t.Fatalf("successor fences at generation %d, not above the %d an agent accepted from the dead leader", m2.FenceGen(), accepted)
	}
	gen, fenced, err := m2.Fence()
	if err != nil || fenced != len(s.addrs) {
		t.Fatalf("fencing sweep at generation %d: %d of %d fenced, %v", gen, fenced, len(s.addrs), err)
	}
	m2.Stop()
	for sw, a := range s.agents {
		if got, _ := a.GenerationID(); got != gen {
			t.Fatalf("switch %d holds generation %d after the sweep, want %d", sw, got, gen)
		}
	}
}

// frameEnds walks the WAL's frame headers — [magic u16][length u32][crc u32] —
// and returns the offset each frame ends at: every length a crash between two
// commits can leave the file at, a torn tail being trimmed to one of them.
func frameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(wal); {
		if len(wal)-off < 10 {
			t.Fatalf("WAL ends inside a frame header at %d", off)
		}
		off += 10 + int(binary.BigEndian.Uint32(wal[off+2:]))
		ends = append(ends, off)
	}
	return ends
}

// TestSuccessorResumesAboveEveryCrashPoint records a run long enough to cross
// a top-up of the reservation, noting at every Pusher and Restorer call the
// epoch it was signed with and the WAL's length on entry.
// Then it opens a successor on the WAL cut at every frame boundary: wherever
// the cut lies at or past the length a call saw, the successor resumes above
// that call's epoch.
func TestSuccessorResumesAboveEveryCrashPoint(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	m, st, events := newStoredMedic(t, dir, rec, 1<<20)
	const passes = reserveBlock/2 + 8
	for i := uint64(1); i <= passes; i++ {
		ev := monitor.Event{Seq: i, At: time.Now()}
		switch i % 4 {
		case 1:
			ev.Failed = []int{3}
		case 2:
			ev.Failed = []int{4}
		case 3:
			ev.Recovered = []int{3}
		case 0:
			ev.Recovered = []int{4}
		}
		events <- ev
		waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == i })
	}
	m.Stop()
	if st.Checkpoints() != 0 {
		t.Fatal("the WAL was truncated mid-run; the recorded lengths mean nothing")
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Status().EpochReserved; len(rec.signed) < passes || got <= reserveBlock {
		t.Fatalf("%d signed calls recorded, reserved through %d: the run crossed no top-up", len(rec.signed), got)
	}

	dep, flows := testFixture(t)
	for _, cut := range append([]int{0}, frameEnds(t, wal)...) {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(cutDir, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("WAL cut at %d: %v", cut, err)
		}
		m2, err := New(Config{Dep: dep, Flows: flows, Addrs: map[topo.NodeID]string{0: "stubbed"}, Store: st2})
		if err != nil {
			t.Fatalf("WAL cut at %d: %v", cut, err)
		}
		resumed := m2.Status().Epoch
		_ = st2.Close()
		for _, c := range rec.signed {
			if int64(cut) >= c.walLen && resumed <= c.epoch {
				t.Fatalf("WAL cut at %d: successor resumes at epoch %d, but a call signed with epoch %d saw the WAL at %d bytes",
					cut, resumed, c.epoch, c.walLen)
			}
		}
	}
}

// TestFlushStateGivesTheReservationBack: a clean shutdown checkpoints
// reserved = epoch, so the restart resumes at the next epoch, not a block on;
// and the checkpoint supersedes what was still staged — the resume entry of a
// daemon that never got an event is in it once, not lost and not twice.
func TestFlushStateGivesTheReservationBack(t *testing.T) {
	dir := t.TempDir()
	m1, _, events := newStoredMedic(t, dir, &recorder{}, 0)
	events <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
	waitStatus(t, m1, func(s Status) bool { return s.Converged && s.Epoch == 1 })
	m1.Stop()
	if got := m1.Status().EpochReserved; got != reserveBlock {
		t.Fatalf("running daemon reserved through %d, want %d", got, reserveBlock)
	}
	if err := m1.FlushState(); err != nil {
		t.Fatal(err)
	}
	if got := m1.Status().EpochReserved; got != 1 {
		t.Fatalf("flushed daemon still holds a reservation through %d", got)
	}

	// Restarted, never started, flushed again: its resume entry was only
	// staged when the checkpoint dropped the stage.
	m2, st2 := idleStoredMedic(t, dir, &recorder{}, store.Options{NoSync: true}, nil)
	if got := m2.Status().Epoch; got != 2 {
		t.Fatalf("clean restart resumed at epoch %d, want 2", got)
	}
	if err := m2.FlushState(); err != nil {
		t.Fatal(err)
	}
	if st2.Pending() != 0 {
		t.Fatalf("%d records pending after FlushState", st2.Pending())
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumes := 0
	for _, e := range st.Events {
		if e.Kind == KindResume {
			resumes++
		}
	}
	if resumes != 1 || st.Epoch != 2 || st.EpochReserved != 2 {
		t.Fatalf("after the second flush: %d resume entries, epoch %d, reserved through %d; want 1, 2, 2", resumes, st.Epoch, st.EpochReserved)
	}
}

// TestStateDirWithoutReservationsResumes: testdata/state-pr19 is the state
// directory of a daemon from before epochs were reserved and commits grouped
// (one frame a record, no reserve record, no reserved field in the snapshot),
// killed at epoch 3 with a checkpoint and a WAL tail behind it. It opens,
// resumes one epoch on as that daemon's own successor would have, makes its
// first reservation from there, and carries on in the same WAL.
func TestStateDirWithoutReservationsResumes(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "state-pr19", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recorder{}
	m, _, events := newStoredMedic(t, dir, rec, 0)
	st := m.Status()
	if st.Epoch != 4 || len(st.Failed) != 1 || st.Failed[0] != 4 || st.Case != "(16)" || !st.Converged || st.Restores != 1 {
		t.Fatalf("resumed as epoch %d failed %v case %q converged %v restores %d; the old daemon died at epoch 3 converged on (16) with 4 down",
			st.Epoch, st.Failed, st.Case, st.Converged, st.Restores)
	}
	if !hasLogKind(st, KindResume, "resumed at epoch 4") || !hasLogKind(st, KindConverged, "epoch 3: converged on (16)") {
		t.Fatalf("resumed log lacks the old daemon's entries or the resume marker: %+v", st.Events)
	}

	events <- monitor.Event{Seq: 1, Recovered: []int{4}, At: time.Now()}
	waitStatus(t, m, func(s Status) bool { return s.Ideal && s.Epoch == 5 })
	m.Stop()
	tailed, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tailed.Epoch != 5 || !tailed.Ideal || tailed.EpochReserved != 5+reserveBlock-1 {
		t.Fatalf("the store after one more pass: epoch %d ideal %v reserved through %d", tailed.Epoch, tailed.Ideal, tailed.EpochReserved)
	}
}
