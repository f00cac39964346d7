package medic

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/sdnsim"
)

// These tests pin the medic's side of the standby sessions on real loopback
// agents, by counting dials: what the warm-up opens, what the first recovery
// then does not, and that Stop leaves nothing open on any switch.

// countingDial is the default dialer with a counter in front.
func countingDial(dials *atomic.Int64) sdnsim.DialFunc {
	return func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		dials.Add(1)
		return openflow.DialTimeout(addr, timeout)
	}
}

func sessionMedic(t *testing.T, s *liveStack, dial sdnsim.DialFunc) *Medic {
	t.Helper()
	m, err := New(Config{
		Dep:   s.dep,
		Flows: s.flows,
		Addrs: s.addrs,
		Net:   s.net,
		Push:  sdnsim.PushOptions{Seed: 5, Dial: dial},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// noSessionLeft waits until no agent serves a channel any more: a switch
// notices a closed session asynchronously.
func noSessionLeft(t *testing.T, s *liveStack) {
	t.Helper()
	waitUntil(t, "every agent without an open session", 5*time.Second, func() bool {
		for _, a := range s.agents {
			if a.Channels() != 0 {
				return false
			}
		}
		return true
	})
}

// TestFirstRecoveryRidesOnWarmSessions: pre-warming is what gives the first
// failure — the only one production sees — a recovery without a dial. Once
// the freshly started medic reports every session idle, the recovery and the
// fail-back that follow dial nothing; Stop then leaves no session behind.
func TestFirstRecoveryRidesOnWarmSessions(t *testing.T) {
	s := newLiveStack(t, 7)
	var dials atomic.Int64
	m := sessionMedic(t, s, countingDial(&dials))
	events := make(chan monitor.Event, 4)
	m.Start(events)
	defer m.Stop()

	n := len(s.addrs)
	waitStatus(t, m, func(st Status) bool { return st.Sessions.Idle == n })
	if got := dials.Load(); got != int64(n) {
		t.Fatalf("warm-up dialled %d times for %d switches", got, n)
	}

	for _, j := range []int{3, 4} {
		if err := s.net.StopController(j); err != nil {
			t.Fatal(err)
		}
	}
	events <- monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()}
	st := waitStatus(t, m, func(st Status) bool { return st.Converged && st.Epoch == 1 })
	if len(st.Unreachable) != 0 || st.PushRounds != 1 {
		t.Fatalf("first recovery: unreachable %v, %d push rounds", st.Unreachable, st.PushRounds)
	}
	if got := dials.Load(); got != int64(n) {
		t.Fatalf("the first recovery dialled %d time(s) with every session standing by", got-int64(n))
	}
	if st.Sessions.Reused == 0 || st.Sessions.StaleRedialled != 0 {
		t.Fatalf("first recovery's sessions: %+v", st.Sessions)
	}

	for _, j := range []int{3, 4} {
		if err := s.net.StartController(j); err != nil {
			t.Fatal(err)
		}
	}
	events <- monitor.Event{Seq: 2, Recovered: []int{3, 4}, At: time.Now()}
	st = waitStatus(t, m, func(st Status) bool { return st.Ideal && st.Epoch == 2 })
	if got := dials.Load(); got != int64(n) || st.Sessions.Idle != n {
		t.Fatalf("after the fail-back: %d dials (want %d), sessions %+v", got, n, st.Sessions)
	}

	var out strings.Builder
	if _, err := m.Metrics().WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pmedicd_standby_sessions 25\n",
		"pmedicd_session_dials_total 25\n",
		"pmedicd_session_stale_redials_total 0\n",
		"# TYPE pmedicd_session_reuses_total counter\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
		}
	}

	m.Stop()
	if st := m.Status(); st.Sessions.Idle != 0 {
		t.Fatalf("stopped medic holds %d sessions", st.Sessions.Idle)
	}
	noSessionLeft(t, s)
}

// TestStopDuringWarmUpLeavesNoSession: Stop joins a warm-up caught with dials
// in flight; whatever they complete to is closed, not kept.
func TestStopDuringWarmUpLeavesNoSession(t *testing.T) {
	s := newLiveStack(t, 7)
	// One send per dial at most: sized to the number of addresses.
	dialling := make(chan struct{}, len(s.addrs))
	proceed := make(chan struct{})
	m := sessionMedic(t, s, func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		dialling <- struct{}{}
		<-proceed
		return openflow.DialTimeout(addr, timeout)
	})
	m.Start(make(chan monitor.Event))
	<-dialling

	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	close(proceed)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return once the in-flight warm-up dials had")
	}
	if st := m.Status(); st.Sessions.Idle != 0 {
		t.Fatalf("stopped medic holds %d sessions", st.Sessions.Idle)
	}
	noSessionLeft(t, s)
}

// TestFenceSweepIsTheWarmUp: a promoted leader's fencing sweep runs on the
// medic's own sessions and leaves them standing by, so the reconcile that
// follows dials nothing; a medic with no predecessor sweeps nothing.
func TestFenceSweepIsTheWarmUp(t *testing.T) {
	s := newLiveStack(t, 7)
	var dials atomic.Int64
	m := sessionMedic(t, s, countingDial(&dials))
	defer m.Stop()
	if gen, fenced, err := m.Fence(); gen != 0 || fenced != 0 || err != nil || dials.Load() != 0 {
		t.Fatalf("epoch-0 sweep: gen %d, fenced %d, err %v, %d dials", gen, fenced, err, dials.Load())
	}

	if err := s.net.StopController(3); err != nil {
		t.Fatal(err)
	}
	m.apply(monitor.Event{Seq: 1, Failed: []int{3}})
	n := len(s.addrs)
	gen, fenced, err := m.Fence()
	if gen != m.FenceGen() || fenced != n || err != nil {
		t.Fatalf("sweep: gen %d (want %d), %d of %d fenced, err %v", gen, m.FenceGen(), fenced, n, err)
	}
	for sw, a := range s.agents {
		if g, ok := a.GenerationID(); !ok || g != gen {
			t.Fatalf("switch %d holds generation %d (set=%v), want %d", sw, g, ok, gen)
		}
	}
	if st := m.Status().Sessions; st.Idle != n || st.Dialled != uint64(n) {
		t.Fatalf("after the sweep: %+v, want %d sessions dialled and standing by", st, n)
	}

	m.reconcile()
	st := m.Status()
	if !st.Converged || len(st.Unreachable) != 0 {
		t.Fatalf("reconcile after the sweep: converged %v, unreachable %v", st.Converged, st.Unreachable)
	}
	if got := dials.Load(); got != int64(n) || st.Sessions.Reused == 0 {
		t.Fatalf("reconcile after the sweep: %d dials (want %d), sessions %+v", got, n, st.Sessions)
	}

	m.Stop()
	noSessionLeft(t, s)
}
