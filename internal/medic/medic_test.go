package medic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

func testFixture(t *testing.T) (*topo.Deployment, *flow.Set) {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, flows
}

// recorder stubs the wire drivers: pushes succeed instantly (demoting every
// switch of a configured set the plan maps) and restores succeed instantly,
// while recording every call for assertions.
type recorder struct {
	mu       sync.Mutex
	demote   map[topo.NodeID]bool
	pushes   []*scenario.Instance
	sols     []*core.Solution
	gens     []uint64
	restores [][]topo.NodeID
	// lose lists the switches every restore reports it could not reach.
	lose []topo.NodeID
	// pushErr, when set, is what every push fails with.
	pushErr error

	// watch, when set, holds every call to the fencing invariant.
	t      testing.TB
	dir    string
	signed []signedCall
}

// signedCall is one Pusher or Restorer call as the state directory saw it:
// the epoch it was signed with and how long the WAL was on entry.
type signedCall struct {
	epoch  uint64
	walLen int64
}

// watch makes every later call assert that the epoch it is signed with lies
// inside the reservation that is durable in dir at that moment — a medic never
// signs an epoch it has not durably reserved — and note the call in signed.
func (r *recorder) watch(t testing.TB, dir string) { r.t, r.dir = t, dir }

func (r *recorder) checkReserved(what string, opts sdnsim.PushOptions) {
	if r.dir == "" {
		return
	}
	epoch := opts.GenerationID / genStride
	snap, recs, err := store.ReadState(r.dir)
	if err != nil {
		r.t.Errorf("%s at epoch %d: reading the state directory: %v", what, epoch, err)
		return
	}
	ds, err := replayDurable(snap, recs)
	if err != nil {
		r.t.Errorf("%s at epoch %d: replaying the state directory: %v", what, epoch, err)
		return
	}
	if ds == nil || epoch > ds.Reserved {
		r.t.Errorf("%s signed with epoch %d, above the durable reservation (%+v)", what, epoch, ds)
	}
	var walLen int64
	if fi, err := os.Stat(filepath.Join(r.dir, "wal.log")); err == nil {
		walLen = fi.Size()
	}
	r.mu.Lock()
	r.signed = append(r.signed, signedCall{epoch: epoch, walLen: walLen})
	r.mu.Unlock()
}

func (r *recorder) push(_ map[topo.NodeID]string, _ *flow.Set, inst *scenario.Instance,
	sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
	r.checkReserved("push", opts)
	r.mu.Lock()
	r.pushes = append(r.pushes, inst)
	r.sols = append(r.sols, sol)
	r.gens = append(r.gens, opts.GenerationID)
	demote, pushErr := r.demote, r.pushErr
	r.mu.Unlock()
	if pushErr != nil {
		return nil, pushErr
	}

	rep := &sdnsim.RecoveryReport{}
	for i, swID := range inst.Switches {
		if demote[swID] && sol.SwitchController[i] >= 0 {
			rep.Demoted = append(rep.Demoted, swID)
		}
	}
	return rep, nil
}

func (r *recorder) restore(_ map[topo.NodeID]string, _ *flow.Set, switches []topo.NodeID,
	opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error) {
	r.checkReserved("restore", opts)
	r.mu.Lock()
	r.restores = append(r.restores, append([]topo.NodeID(nil), switches...))
	lose := r.lose
	r.mu.Unlock()
	return &sdnsim.RestoreReport{Failed: lose}, nil
}

// newIdleMedic wires a medic to the recorder's stubs (and to net, which may
// be nil) without starting its loop: a test drives its passes by hand, so the
// interleaving is exact and nothing sleeps.
func newIdleMedic(t *testing.T, rec *recorder, net *sdnsim.Network) *Medic {
	t.Helper()
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:      dep,
		Flows:    flows,
		Addrs:    map[topo.NodeID]string{0: "stubbed"},
		Net:      net,
		Pusher:   rec.push,
		Restorer: rec.restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestMedic(t *testing.T, rec *recorder) (*Medic, chan monitor.Event) {
	t.Helper()
	m := newIdleMedic(t, rec, nil)
	events := make(chan monitor.Event, 8)
	m.Start(events)
	t.Cleanup(m.Stop)
	return m, events
}

// drive runs one pass by hand — the batch, then every effect step asks for —
// and returns the status it leaves.
func drive(m *Medic, batch ...monitor.Event) Status {
	m.apply(batch...)
	m.reconcile()
	return m.Status()
}

// waitStatus waits for a medic whose loop runs to report a status that
// satisfies cond.
func waitStatus(t *testing.T, m *Medic, cond func(Status) bool) (st Status) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("last status: %+v", st)
		}
	}()
	waitUntil(t, "status condition", 30*time.Second, func() bool {
		st = m.Status()
		return cond(st)
	})
	return st
}

func hasLogKind(st Status, k Kind, substr string) bool {
	for _, e := range st.Events {
		if e.Kind == k && strings.Contains(e.Msg, substr) {
			return true
		}
	}
	return false
}

func TestFailureEventConvergesToPushedPlan(t *testing.T) {
	rec := &recorder{}
	m := newIdleMedic(t, rec, nil)

	st := drive(m, monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()})
	if !st.Converged || st.Ideal {
		t.Fatalf("converged=%v ideal=%v, want a converged recovery", st.Converged, st.Ideal)
	}
	if len(st.Failed) != 2 || st.Failed[0] != 3 || st.Failed[1] != 4 {
		t.Fatalf("Failed = %v, want [3 4]", st.Failed)
	}
	if st.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", st.Epoch)
	}
	if st.MinProg < 1 || st.TotalProg == 0 || len(st.Mapping) == 0 || len(st.FlowProg) == 0 {
		t.Fatalf("achieved metrics missing: %+v", st)
	}
	if st.OfflineFlows == 0 || st.RecoveredFlows == 0 {
		t.Fatalf("flow accounting missing: %+v", st)
	}
	if !hasLogKind(st, KindDetect, "") || !hasLogKind(st, KindPush, "") || !hasLogKind(st, KindConverged, "") {
		t.Fatalf("expected detect/push/converged log entries, got %+v", st.Events)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pushes) != 1 {
		t.Fatalf("pushes = %d, want 1", len(rec.pushes))
	}
	if rec.gens[0] != genStride+1 {
		t.Fatalf("generation = %d, want %d", rec.gens[0], genStride+1)
	}
}

func TestSuccessiveFailureReplansResidually(t *testing.T) {
	dep, _ := testFixture(t)
	victim := dep.Controllers[3].Domain[0]
	rec := &recorder{demote: map[topo.NodeID]bool{victim: true}}
	m := newIdleMedic(t, rec, nil)

	// First failure: the push demotes the victim switch, and the pass
	// re-plans around it and pushes again.
	st := drive(m, monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()})
	if !st.Converged || len(st.Unreachable) != 1 || st.Unreachable[0] != victim || st.PushRounds != 2 {
		t.Fatalf("Unreachable = %v after %d push rounds, want [%d] after 2", st.Unreachable, st.PushRounds, victim)
	}

	// Successive failure: the new plan must route around the known-dead
	// switch via the residual instance instead of re-mapping it.
	st = drive(m, monitor.Event{Seq: 2, Failed: []int{4}, At: time.Now()})
	if !st.Converged || !hasLogKind(st, KindPlan, "residual") || st.PushRounds != 1 {
		t.Fatalf("no residual re-plan logged, or %d push rounds: %+v", st.PushRounds, st.Events)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pushes) != 3 {
		t.Fatalf("pushes = %d, want 3", len(rec.pushes))
	}
	if rec.sols[0].SwitchController[slices.Index(rec.pushes[0].Switches, victim)] < 0 {
		t.Fatalf("the first plan leaves switch %d unmapped; the test no longer demotes it", victim)
	}
	for n := 1; n < 3; n++ {
		inst, sol := rec.pushes[n], rec.sols[n]
		if i := slices.Index(inst.Switches, victim); i >= 0 && sol.SwitchController[i] >= 0 {
			t.Fatalf("push %d still maps unreachable switch %d", n, victim)
		}
	}
	if rec.gens[1] != rec.gens[0] || rec.gens[2] <= rec.gens[1] {
		t.Fatalf("generations %v: want one per epoch, rising", rec.gens)
	}
}

func TestRecoveryTriggersFailBack(t *testing.T) {
	dep, _ := testFixture(t)
	rec := &recorder{}
	m := newIdleMedic(t, rec, nil)

	drive(m, monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()})

	// One controller returns: its domain is restored, the rest re-planned.
	st := drive(m, monitor.Event{Seq: 2, Recovered: []int{3}, At: time.Now()})
	if !st.Converged || len(st.Failed) != 1 || st.Failed[0] != 4 {
		t.Fatalf("Failed = %v, want [4]", st.Failed)
	}
	if st.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", st.Restores)
	}

	// The last controller returns: ideal state.
	st = drive(m, monitor.Event{Seq: 3, Recovered: []int{4}, At: time.Now()})
	if !st.Ideal || !st.Converged || len(st.Failed) != 0 {
		t.Fatalf("not back to ideal: %+v", st)
	}
	if !hasLogKind(st, KindFailback, "") || !hasLogKind(st, KindRestore, "") {
		t.Fatalf("expected restore/failback log entries: %+v", st.Events)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.restores) != 2 {
		t.Fatalf("restores = %d, want 2", len(rec.restores))
	}
	if len(rec.restores[0]) != len(dep.Controllers[3].Domain) {
		t.Fatalf("first restore covered %d switches, want controller 3's domain (%d)",
			len(rec.restores[0]), len(dep.Controllers[3].Domain))
	}
}

func TestUnplannableFailureSetIsLoggedNotFatal(t *testing.T) {
	m := newIdleMedic(t, &recorder{}, nil)

	// All six controllers down: nothing can be planned.
	st := drive(m, monitor.Event{Seq: 1, Failed: []int{0, 1, 2, 3, 4, 5}, At: time.Now()})
	if st.Converged || !hasLogKind(st, KindError, "") {
		t.Fatalf("converged=%v, events %+v; want an unconverged pass and an error entry", st.Converged, st.Events)
	}

	// A controller returning makes the set plannable again.
	if st := drive(m, monitor.Event{Seq: 2, Recovered: []int{0}, At: time.Now()}); !st.Converged {
		t.Fatalf("the plannable set did not converge: %+v", st)
	}
}

func TestPushFailureLeavesUnconverged(t *testing.T) {
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:   dep,
		Flows: flows,
		Addrs: map[topo.NodeID]string{0: "stubbed"},
		Pusher: func(map[topo.NodeID]string, *flow.Set, *scenario.Instance,
			*core.Solution, sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
			return nil, errors.New("wire is gone")
		},
		Restorer: (&recorder{}).restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := drive(m, monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()})
	if st.Converged || !hasLogKind(st, KindError, "wire is gone") {
		t.Fatalf("converged=%v, events %+v; want the push error logged", st.Converged, st.Events)
	}
}

func TestEventLogRingWraps(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.addf(KindDetect, "entry %d", i)
	}
	got := l.snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	if got[0].Msg != "entry 6" || got[3].Msg != "entry 9" {
		t.Fatalf("wrong window: %v ... %v", got[0].Msg, got[3].Msg)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-monotone seqs: %+v", got)
		}
	}
}

// TestSplitFailBackRestoresOwnership replays the detector reporting the
// return of {3,4} as two events. Both controllers are already alive in the
// network when the first event arrives, so the intermediate reconcile for
// failed={3} adopts a recovery that hands controller 3's domain away after
// StartController re-homed it; the fail-back for 3 must take it back, or the
// network mapping stays non-ideal for good.
func TestSplitFailBackRestoresOwnership(t *testing.T) {
	dep, flows := testFixture(t)
	net, err := sdnsim.New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := newIdleMedic(t, &recorder{}, net)
	ideal := net.MappingSnapshot()
	step := func(ev monitor.Event) { drive(m, ev) }

	for _, j := range []int{3, 4} {
		if err := net.StopController(j); err != nil {
			t.Fatal(err)
		}
	}
	step(monitor.Event{Seq: 1, Failed: []int{3, 4}})
	for _, j := range []int{3, 4} {
		if err := net.StartController(j); err != nil {
			t.Fatal(err)
		}
	}
	step(monitor.Event{Seq: 2, Recovered: []int{4}})
	handedAway := false
	for _, sw := range dep.Controllers[3].Domain {
		if net.MappingSnapshot()[sw] != 3 {
			handedAway = true
		}
	}
	if !handedAway {
		t.Fatal("the intermediate recovery for {3} left controller 3's domain alone; the test no longer reproduces the split fail-back")
	}
	step(monitor.Event{Seq: 3, Recovered: []int{3}})

	st := m.Status()
	if !st.Converged || !st.Ideal || len(st.Failed) != 0 || st.Restores != 2 {
		t.Fatalf("after the split fail-back: converged=%v ideal=%v failed=%v restores=%d",
			st.Converged, st.Ideal, st.Failed, st.Restores)
	}
	for sw, want := range ideal {
		if st.NetworkMapping[sw] != want {
			t.Fatalf("after the split fail-back switch %d is owned by %d, ideal is %d", sw, st.NetworkMapping[sw], want)
		}
	}
}

// TestBatchedFailBackIsOneRestorerCall: controllers that return in one event
// batch are restored by one Restorer call over the union of their domains,
// and still count and log as one restore each.
func TestBatchedFailBackIsOneRestorerCall(t *testing.T) {
	dep, _ := testFixture(t)
	rec := &recorder{}
	m := newIdleMedic(t, rec, nil)

	drive(m, monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()})
	st := drive(m, monitor.Event{Seq: 2, Recovered: []int{3, 4}, At: time.Now()})

	if !st.Ideal || st.Restores != 2 {
		t.Fatalf("Restores = %d, want one per returned controller", st.Restores)
	}
	logged := 0
	for _, e := range st.Events {
		if e.Kind == KindRestore {
			logged++
		}
	}
	if logged != 2 {
		t.Fatalf("%d restore log entries, want one per returned controller", logged)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := len(dep.Controllers[3].Domain) + len(dep.Controllers[4].Domain)
	if len(rec.restores) != 1 || len(rec.restores[0]) != want {
		t.Fatalf("Restorer calls covered %v, want one call over %d switches", rec.restores, want)
	}
}

// TestMetricsTimeTheWireStages: /metrics carries one histogram per wire
// stage and one for planning next to the reconcile one, each observed once
// per call (the fail-back plans nothing), with buckets below a millisecond,
// and counts what the drivers sent.
func TestMetricsTimeTheWireStages(t *testing.T) {
	m := newIdleMedic(t, &recorder{}, nil)
	drive(m, monitor.Event{Seq: 1, Failed: []int{3, 4}})
	drive(m, monitor.Event{Seq: 2, Recovered: []int{3, 4}})

	var out strings.Builder
	if _, err := m.Metrics().WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pmedicd_reconcile_duration_seconds_count 2\n",
		"pmedicd_plan_duration_seconds_count 1\n",
		"pmedicd_push_duration_seconds_count 1\n",
		"pmedicd_restore_duration_seconds_count 1\n",
		"pmedicd_push_duration_seconds_bucket{le=\"+Inf\"} 1\n",
		"pmedicd_push_duration_seconds_bucket{le=\"0.0005\"} ",
		"pmedicd_restore_duration_seconds_bucket{le=\"0.0001\"} ",
		"pmedicd_restores_total 2\n",
		"pmedicd_push_flowmods_total 0\n",
		"pmedicd_full_asserts_total 0\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
		}
	}
}

// TestPartialFailBackIsNotIdeal: a fail-back that cannot reach a switch of
// the returned domain leaves the daemon short of ideal. The switch stays
// unreachable, the failback entry names it, and the controller stays pending,
// so the next pass pushes its domain again; once that push reaches every
// switch, the daemon is ideal and has counted one restore.
func TestPartialFailBackIsNotIdeal(t *testing.T) {
	dep, _ := testFixture(t)
	lost := dep.Controllers[3].Domain[0]
	rec := &recorder{lose: []topo.NodeID{lost}}
	m := newIdleMedic(t, rec, nil)

	drive(m, monitor.Event{Seq: 1, Failed: []int{3}})
	st := drive(m, monitor.Event{Seq: 2, Recovered: []int{3}})
	if st.Ideal || !slices.Equal(st.Unreachable, []topo.NodeID{lost}) || st.Restores != 0 {
		t.Fatalf("after a fail-back that missed switch %d: ideal=%v unreachable=%v restores=%d",
			lost, st.Ideal, st.Unreachable, st.Restores)
	}
	if !hasLogKind(st, KindFailback, fmt.Sprint([]topo.NodeID{lost})) {
		t.Fatalf("no failback entry names switch %d: %+v", lost, st.Events)
	}

	rec.mu.Lock()
	rec.lose = nil
	rec.mu.Unlock()
	st = drive(m, monitor.Event{Seq: 3})
	if !st.Ideal || len(st.Unreachable) != 0 || st.Restores != 1 {
		t.Fatalf("after the retry: ideal=%v unreachable=%v restores=%d", st.Ideal, st.Unreachable, st.Restores)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.restores) != 2 || !slices.Equal(rec.restores[1], dep.Controllers[3].Domain) {
		t.Fatalf("restores %v, want controller 3's domain twice", rec.restores)
	}
}

// TestSplitFailureConvergesToJointPlan: the detector does not hold a failure
// to see whether another follows, so a correlated failure of {3,4} can arrive
// as {3} then {4} a moment apart. However the two meet the passes — batched
// into one, the second queued behind the first's plan, or the second after
// the first was pushed — the daemon must end converged on the joint plan a
// fresh solve of {3,4} gives, having pushed {3} alone only in the last case.
// All but one case drive the passes by hand; "overtakes the plan" runs the
// loop, whose peek at the event channel is what discards a queued plan.
func TestSplitFailureConvergesToJointPlan(t *testing.T) {
	dep, flows := testFixture(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := ctx.Build([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.PM(joint.Problem)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]MappingEntry, len(fresh.SwitchController))
	for i, jj := range fresh.SwitchController {
		want[i] = MappingEntry{Switch: joint.Switches[i], Controller: -1}
		if jj >= 0 {
			want[i].Controller = joint.Active[jj]
		}
	}
	first := monitor.Event{Seq: 1, Failed: []int{3}}
	second := monitor.Event{Seq: 2, Failed: []int{4}}

	// run delivers first and second. solve is the medic's planner; planning
	// is closed when its first solve begins.
	cases := []struct {
		name      string
		pushes    int
		wantStale bool
		run       func(t *testing.T, m *Medic, planning <-chan struct{}, release func()) Status
	}{
		{"batched", 1, false, func(_ *testing.T, m *Medic, _ <-chan struct{}, release func()) Status {
			release()
			return drive(m, first, second)
		}},
		{"queued behind the plan", 1, true, func(_ *testing.T, m *Medic, _ <-chan struct{}, release func()) Status {
			release()
			// The detector's channel, as the loop would hold it, with the
			// second event queued while the first pass plans.
			queued := make(chan monitor.Event, 1)
			queued <- second
			m.events = queued
			drive(m, first)
			return drive(m, <-queued)
		}},
		{"after the push", 2, false, func(_ *testing.T, m *Medic, _ <-chan struct{}, release func()) Status {
			release()
			drive(m, first)
			return drive(m, second)
		}},
		{"overtakes the plan", 1, true, func(t *testing.T, m *Medic, planning <-chan struct{}, release func()) Status {
			events := make(chan monitor.Event, 2)
			events <- first
			m.Start(events)
			t.Cleanup(m.Stop)
			<-planning
			events <- second
			release()
			return waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 2 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			planning, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			m, err := New(Config{
				Dep:      dep,
				Flows:    flows,
				Addrs:    map[topo.NodeID]string{0: "stubbed"},
				Pusher:   rec.push,
				Restorer: rec.restore,
				Solve: func(p *core.Problem) (*core.Solution, error) {
					once.Do(func() { close(planning) })
					<-release
					return core.PM(p)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := tc.run(t, m, planning, func() { close(release) })

			if !st.Converged || st.Epoch != 2 || st.Case != joint.Label() {
				t.Fatalf("converged=%v at epoch %d on %s, want the joint case %s at epoch 2", st.Converged, st.Epoch, st.Case, joint.Label())
			}
			if !slices.Equal(st.Mapping, want) {
				t.Fatalf("mapping differs from a fresh PM solve of {3,4}:\n got %v\nwant %v", st.Mapping, want)
			}

			rec.mu.Lock()
			pushes := len(rec.pushes)
			last := rec.pushes[pushes-1].Label()
			rec.mu.Unlock()
			if pushes != tc.pushes || last != joint.Label() {
				t.Fatalf("%d pushes, the last for %s; want %d, the last for %s", pushes, last, tc.pushes, joint.Label())
			}
			// One push means {3} alone was never pushed: either it was never
			// planned alone (the two detect entries are adjacent) or its plan
			// was discarded, which the log must say.
			stale := hasLogKind(st, KindStale, "")
			if stale != tc.wantStale {
				t.Fatalf("stale entry %v, want %v: %+v", stale, tc.wantStale, st.Events)
			}
			if pushes == 1 && !stale {
				first := slices.IndexFunc(st.Events, func(e LogEntry) bool { return e.Kind == KindDetect })
				if st.Events[first+1].Kind != KindDetect {
					t.Fatalf("one push, no stale entry, yet {3} was reconciled alone: %+v", st.Events)
				}
			}
		})
	}
}

// TestStatusIsOneState pins what a reader of Status may rely on while the loop
// works: every status is one point in the daemon's history. Readers hammer
// Status through 100 fail / fail-back episodes over the stub pusher, two cases
// alternating (one of which demotes a switch), and hold every read to:
//
//   - epoch N shown ⇒ N's detect entry shown;
//   - converged and not ideal at epoch N ⇒ N's converged entry shown;
//   - converged and ideal after a fail-back at epoch N ⇒ N's failback entry
//     shown;
//   - nothing of a pass the state does not show yet: the newest entry is one
//     of epoch N;
//   - case, mapping, r and the unreachable set are all from the same pass:
//     they equal what a medic driven by hand through that case alone reports.
func TestStatusIsOneState(t *testing.T) {
	dep, _ := testFixture(t)
	demote := map[topo.NodeID]bool{dep.Controllers[3].Domain[0]: true}
	sets := [][]int{{3, 4}, {2}}

	// What each pass a reader can meet looks like from the inside.
	type passView struct {
		mapping     []MappingEntry
		minProg     int
		unreachable []topo.NodeID
	}
	views := map[string]passView{"": {}}
	for _, set := range sets {
		ref := newIdleMedic(t, &recorder{demote: demote}, nil)
		ref.apply(monitor.Event{Seq: 1, Failed: set})
		ref.reconcile()
		st := ref.Status()
		if !st.Converged || st.Case == "" {
			t.Fatalf("reference pass for %v did not converge: %+v", set, st)
		}
		views[st.Case] = passView{st.Mapping, st.MinProg, st.Unreachable}
	}
	if len(views) != 3 {
		t.Fatalf("the cases share a label: %v", views)
	}

	m, events := newTestMedic(t, &recorder{demote: demote})
	// A pass's entries are the newest the log can hold: search from the end, and
	// no further back than the epoch before (a read must stay cheap for enough
	// of them to land inside a pass).
	hasEntry := func(st Status, kind Kind) bool {
		at := "epoch " + strconv.FormatUint(st.Epoch, 10) + ":"
		before := "epoch " + strconv.FormatUint(st.Epoch-1, 10) + ":"
		for i := len(st.Events) - 1; i >= 0; i-- {
			e := &st.Events[i]
			if e.Kind == kind && strings.HasPrefix(e.Msg, at) {
				return true
			}
			if strings.HasPrefix(e.Msg, before) {
				break
			}
		}
		return false
	}
	check := func(st Status) string {
		switch {
		case st.Epoch > 0 && !hasEntry(st, KindDetect):
			return "no detect entry"
		case st.Converged && !st.Ideal && !hasEntry(st, KindConverged):
			return "converged without the converged entry"
		case st.Converged && st.Ideal && st.Epoch > 0 && !hasEntry(st, KindFailback):
			return "ideal without the failback entry"
		case st.Epoch > 0 && !strings.HasPrefix(st.Events[len(st.Events)-1].Msg, fmt.Sprintf("epoch %d:", st.Epoch)):
			return "entries of a pass the state does not show"
		}
		want, known := views[st.Case]
		if !known {
			return "unknown case " + st.Case
		}
		if !slices.Equal(st.Mapping, want.mapping) || st.MinProg != want.minProg || !slices.Equal(st.Unreachable, want.unreachable) {
			return fmt.Sprintf("case %q beside another pass's mapping, r=%d or unreachable set %v", st.Case, st.MinProg, st.Unreachable)
		}
		return ""
	}

	var reads, violations atomic.Int64
	var firstViolation sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.Status()
				reads.Add(1)
				if why := check(st); why != "" {
					violations.Add(1)
					firstViolation.Do(func() {
						t.Errorf("epoch %d (converged %v, ideal %v): %s; events: %+v", st.Epoch, st.Converged, st.Ideal, why, st.Events)
					})
				}
				runtime.Gosched()
			}
		}()
	}

	// The driver waits on the status alone, and briefly (waitStatus polls
	// from 50µs up), so that most reads land inside a pass.
	for ep := uint64(0); ep < 100; ep++ {
		set := sets[ep%2]
		events <- monitor.Event{Seq: 2*ep + 1, Failed: set, At: time.Now()}
		waitStatus(t, m, func(s Status) bool { return s.Converged && !s.Ideal && s.Epoch == 2*ep+1 })
		events <- monitor.Event{Seq: 2*ep + 2, Recovered: set, At: time.Now()}
		waitStatus(t, m, func(s Status) bool { return s.Converged && s.Ideal && s.Epoch == 2*ep+2 })
	}
	close(stop)
	wg.Wait()
	t.Logf("%d of %d Status reads were not one state", violations.Load(), reads.Load())
}
