package monitor

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmedic/internal/openflow"
)

// fakeFleet is a probe-level stand-in for a set of controllers whose
// liveness the test flips directly.
type fakeFleet struct {
	mu   sync.Mutex
	up   map[string]bool
	hits map[string]uint64
}

func newFakeFleet(addrs ...string) *fakeFleet {
	f := &fakeFleet{up: make(map[string]bool), hits: make(map[string]uint64)}
	for _, a := range addrs {
		f.up[a] = true
	}
	return f
}

func (f *fakeFleet) set(addr string, up bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.up[addr] = up
}

func (f *fakeFleet) probe(addr string, _ time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits[addr]++
	if !f.up[addr] {
		return errors.New("probe refused")
	}
	return nil
}

func fastConfig(probe ProbeFunc) Config {
	return Config{
		Interval:  5 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
		Timeout:   20 * time.Millisecond,
		Threshold: 3,
		Debounce:  25 * time.Millisecond,
		Seed:      42,
		Probe:     probe,
	}
}

func waitEvent(t *testing.T, m *Monitor, within time.Duration) Event {
	t.Helper()
	select {
	case ev, ok := <-m.Events():
		if !ok {
			t.Fatal("event stream closed")
		}
		return ev
	case <-time.After(within):
		t.Fatal("no event within deadline")
	}
	return Event{}
}

func TestHealthyTargetsEmitNothing(t *testing.T) {
	fleet := newFakeFleet("a", "b", "c")
	m := New([]Target{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}, {ID: 2, Addr: "c"}},
		fastConfig(fleet.probe))
	m.Start()
	defer m.Stop()

	select {
	case ev := <-m.Events():
		t.Fatalf("unexpected %v from a healthy fleet", ev)
	case <-time.After(150 * time.Millisecond):
	}
	for _, s := range m.State() {
		if !s.Up || s.Failures != 0 {
			t.Fatalf("target %d: %+v", s.ID, s)
		}
		if s.Probes < 3 {
			t.Fatalf("target %d probed only %d times", s.ID, s.Probes)
		}
	}
}

func TestBlipsBelowThresholdAreSuppressed(t *testing.T) {
	// Every 4th probe fails: consecutive misses never reach 3, so the
	// detector must stay silent — the zero-false-positive property.
	var mu sync.Mutex
	calls := 0
	probe := func(string, time.Duration) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls%4 == 0 {
			return errors.New("transient blip")
		}
		return nil
	}
	m := New([]Target{{ID: 0, Addr: "a"}}, fastConfig(probe))
	m.Start()
	defer m.Stop()

	select {
	case ev := <-m.Events():
		t.Fatalf("unexpected %v from sub-threshold blips", ev)
	case <-time.After(200 * time.Millisecond):
	}
	s := m.State()[0]
	if !s.Up || s.Failures != 0 {
		t.Fatalf("target flipped: %+v", s)
	}
	if s.Misses == 0 {
		t.Fatal("no miss recorded; blips not exercised")
	}
}

// TestCorrelatedFailuresCoalesce pins the event contract for a correlated
// failure: downs are never held, so two controllers dying together surface as
// one event or as two back to back — disjoint, gap-free, nothing lost — while
// their returns, which are held for Debounce, still arrive as one.
func TestCorrelatedFailuresCoalesce(t *testing.T) {
	fleet := newFakeFleet("a", "b", "c")
	m := New([]Target{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}, {ID: 2, Addr: "c"}},
		fastConfig(fleet.probe))
	m.Start()
	defer m.Stop()

	fleet.set("a", false)
	fleet.set("c", false)
	failed := make(map[int]bool)
	var seq uint64
	for len(failed) < 2 {
		ev := waitEvent(t, m, 5*time.Second)
		if seq++; ev.Seq != seq {
			t.Fatalf("Seq = %d, want %d (gap-free)", ev.Seq, seq)
		}
		if len(ev.Failed) == 0 || len(ev.Recovered) != 0 {
			t.Fatalf("%v: want failures only", ev)
		}
		if ev.Signal != SignalHeartbeat {
			t.Fatalf("Signal = %q, want %q: no session was ever held", ev.Signal, SignalHeartbeat)
		}
		for _, id := range ev.Failed {
			if failed[id] {
				t.Fatalf("target %d announced down twice (second time in %v)", id, ev)
			}
			failed[id] = true
		}
	}
	if !failed[0] || !failed[2] {
		t.Fatalf("failed set = %v, want {0,2}", failed)
	}

	// Both return: one coalesced recovery event.
	fleet.set("a", true)
	fleet.set("c", true)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Recovered) != 2 || ev.Recovered[0] != 0 || ev.Recovered[1] != 2 || len(ev.Failed) != 0 {
		t.Fatalf("event = %v, want recovered=[0 2] only", ev)
	}
	if ev.Seq != seq+1 {
		t.Fatalf("Seq = %d, want %d", ev.Seq, seq+1)
	}
	s := m.State()[0]
	if s.Failures != 1 || s.Recoveries != 1 {
		t.Fatalf("target 0 counters: %+v", s)
	}
}

func TestOpenflowProbeAgainstEchoServer(t *testing.T) {
	// The default probe against a real endpoint: detection and fail-back
	// over the wire protocol end to end.
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()

	m := New([]Target{{ID: 4, Name: "c4", Addr: es.Addr()}}, Config{
		Interval:  10 * time.Millisecond,
		Jitter:    3 * time.Millisecond,
		Timeout:   100 * time.Millisecond,
		Threshold: 3,
		Debounce:  30 * time.Millisecond,
		Seed:      7,
	})
	m.Start()
	defer m.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for es.Pings() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no probe reached the endpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}

	es.SetAlive(false)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Failed) != 1 || ev.Failed[0] != 4 {
		t.Fatalf("Failed = %v, want [4]", ev.Failed)
	}

	es.SetAlive(true)
	ev = waitEvent(t, m, 5*time.Second)
	if len(ev.Recovered) != 1 || ev.Recovered[0] != 4 {
		t.Fatalf("Recovered = %v, want [4]", ev.Recovered)
	}
}

// TestNanosecondIntervalProbes: an Interval under 4ns must not default Jitter
// to 0, whose jitter draw, rand.Int63n(0), panics on the first tick; from 4ns
// up the default stays Interval/4, so the seeded schedule is unchanged.
func TestNanosecondIntervalProbes(t *testing.T) {
	for _, c := range []struct{ interval, jitter time.Duration }{{3, 1}, {4, 1}, {500 * time.Millisecond, 125 * time.Millisecond}} {
		if got := (Config{Interval: c.interval}).withDefaults().Jitter; got != c.jitter {
			t.Errorf("Interval %v: default Jitter %v, want %v", c.interval, got, c.jitter)
		}
	}
	fleet := newFakeFleet("a")
	m := New([]Target{{ID: 0, Addr: "a"}}, Config{Interval: 3 * time.Nanosecond, Seed: 1, Probe: fleet.probe})
	m.Start()
	defer m.Stop()
	for deadline := time.Now().Add(2 * time.Second); m.State()[0].Probes < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("probed %d times in 2s", m.State()[0].Probes)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStopClosesEventStream(t *testing.T) {
	fleet := newFakeFleet("a")
	m := New([]Target{{ID: 0, Addr: "a"}}, fastConfig(fleet.probe))
	m.Start()
	m.Stop()
	if _, ok := <-m.Events(); ok {
		// Drain any event emitted before the stop; the stream must end.
		for range m.Events() {
		}
	}
}

// TestMarkDownHandsOffDetectorState covers the failover handoff: a
// successor daemon seeds its detector with the failure set restored from
// the shared store. Targets marked down must not re-announce their failure
// (the predecessor already reconciled it), but their recovery must still be
// detected and emitted.
func TestMarkDownHandsOffDetectorState(t *testing.T) {
	fleet := newFakeFleet("a", "b")
	fleet.set("a", false) // target 0 is genuinely down at takeover
	m := New([]Target{{ID: 0, Addr: "a"}, {ID: 1, Addr: "b"}}, fastConfig(fleet.probe))
	m.MarkDown(0)
	m.Start()
	defer m.Stop()

	// No duplicate failure event for the known-down target.
	select {
	case ev := <-m.Events():
		t.Fatalf("unexpected %v for a handed-off failure", ev)
	case <-time.After(150 * time.Millisecond):
	}
	st := m.State()
	if st[0].Up {
		t.Fatal("marked-down target reported up without a successful probe")
	}
	if st[0].Failures != 0 {
		t.Fatalf("handed-off target counted %d fresh failures", st[0].Failures)
	}
	if !st[1].Up {
		t.Fatalf("healthy target flipped: %+v", st[1])
	}

	// Its recovery is still detected as a normal event.
	fleet.set("a", true)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Recovered) != 1 || ev.Recovered[0] != 0 || len(ev.Failed) != 0 {
		t.Fatalf("event = %v, want recovery of target 0", ev)
	}
}

// endpoint is a liveness endpoint that can misbehave in the ways an
// EchoServer cannot: stay connected but stop answering (a hang), reap idle
// channels quickly, and drop every channel without ever being dead (a
// restart faster than one probe).
type endpoint struct {
	*openflow.Server
	idle time.Duration // per-read deadline on every channel; 0 = none
	mute atomic.Bool   // read requests, answer none
}

func serveEndpoint(t *testing.T, idle time.Duration) *endpoint {
	t.Helper()
	e := &endpoint{idle: idle}
	srv, err := openflow.Serve("127.0.0.1:0", e.serve)
	if err != nil {
		t.Fatal(err)
	}
	e.Server = srv
	t.Cleanup(func() { _ = srv.Close() })
	return e
}

func (e *endpoint) serve(conn *openflow.Conn) {
	conn.SetIOTimeout(e.idle)
	for {
		msg, h, err := conn.Recv()
		if err != nil {
			return
		}
		if echo, ok := msg.(openflow.Echo); ok && !echo.Reply && !e.mute.Load() {
			if err := conn.SendXID(openflow.Echo{Reply: true, Data: echo.Data}, h.XID); err != nil {
				return
			}
		}
	}
}

// waitState polls target 0's state until cond holds.
func waitState(t *testing.T, m *Monitor, what string, cond func(TargetState) bool) TargetState {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := m.State()[0]
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached; last state %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// loseSession repeats drop until target 0's watched session is lost to it.
// Once can be too early: Watched turns true when the monitor's end of the
// handshake is done, a moment before the peer has the channel on its books.
func loseSession(t *testing.T, m *Monitor, drop func()) {
	t.Helper()
	base := m.State()[0].SessionResets
	deadline := time.Now().Add(5 * time.Second)
	for {
		drop()
		for i := 0; i < 20; i++ {
			if m.State()[0].SessionResets > base {
				return
			}
			time.Sleep(time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the session was never lost; state %+v", m.State()[0])
		}
	}
}

func expectNoEvent(t *testing.T, m *Monitor, during time.Duration, why string) {
	t.Helper()
	select {
	case ev := <-m.Events():
		t.Fatalf("unexpected %v: %s", ev, why)
	case <-time.After(during):
	}
}

// TestCrashIsDetectedInRoundTripsNotTicks: with a one-second heartbeat, a
// crash that resets the watched session is announced within a few round
// trips, by exactly Threshold extra probes.
func TestCrashIsDetectedInRoundTripsNotTicks(t *testing.T) {
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()

	m := New([]Target{{ID: 4, Addr: es.Addr()}}, Config{
		Interval:  time.Second,
		Jitter:    time.Millisecond,
		Timeout:   200 * time.Millisecond,
		Threshold: 2,
		Seed:      42, // first tick 8 ms after Start; any seed passes, most wait longer
	})
	m.Start()
	defer m.Stop()
	before := waitState(t, m, "session armed", func(s TargetState) bool { return s.Watched })

	t0 := time.Now()
	es.SetAlive(false)
	ev := waitEvent(t, m, 250*time.Millisecond)
	if took := ev.At.Sub(t0); took >= 250*time.Millisecond {
		t.Fatalf("crash announced after %v; the next tick is a second away, so the wake was tick-driven", took)
	}
	if len(ev.Failed) != 1 || ev.Failed[0] != 4 || ev.Signal != SignalReset {
		t.Fatalf("event = %v, want failed=[4] by %s", ev, SignalReset)
	}
	if got := ev.String(); got != "event #1: failed=[4] (reset) recovered=[]" {
		t.Fatalf("String() = %q", got)
	}
	s := m.State()[0]
	if s.Up || s.Watched || s.SessionResets != 1 || s.LastSignal != SignalReset || s.Failures != 1 {
		t.Fatalf("state after the crash: %+v", s)
	}
	if s.Probes != before.Probes+2 || s.Misses != 2 {
		t.Fatalf("verdict took %d probes (%d misses), want exactly Threshold = 2", s.Probes-before.Probes, s.Misses)
	}
}

// TestSilentClientIsNoFailure: a client that connects to a live controller's
// endpoint and never says Hello holds up its own channel only, so the probes
// behind it are answered and no event comes over 25 intervals.
func TestSilentClientIsNoFailure(t *testing.T) {
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()
	nc, err := net.Dial("tcp", es.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()

	const interval = 25 * time.Millisecond
	m := New([]Target{{ID: 0, Addr: es.Addr()}}, Config{
		Interval:  interval,
		Jitter:    5 * time.Millisecond,
		Threshold: 3,
		Seed:      9,
	})
	m.Start()
	defer m.Stop()
	expectNoEvent(t, m, 25*interval, "a silent client is no failure of the controller")
	if s := m.State()[0]; !s.Up || s.Failures != 0 || s.Probes < 10 {
		t.Fatalf("after 25 intervals beside a silent client: %+v", s)
	}
}

// TestSilentFailureIsDetectedByHeartbeatOnly: an endpoint that keeps its
// channels open but stops answering never resets the session, so nothing is
// probed early: the verdict comes on the Threshold-th tick, as it always did.
func TestSilentFailureIsDetectedByHeartbeatOnly(t *testing.T) {
	ep := serveEndpoint(t, 0)
	cfg := Config{
		Interval:  40 * time.Millisecond,
		Jitter:    10 * time.Millisecond,
		Timeout:   30 * time.Millisecond,
		Threshold: 3,
		Seed:      7,
	}
	m := New([]Target{{ID: 0, Addr: ep.Addr()}}, cfg)
	m.Start()
	defer m.Stop()
	waitState(t, m, "session armed", func(s TargetState) bool { return s.Watched })

	t0 := time.Now()
	ep.mute.Store(true)
	ev := waitEvent(t, m, 5*time.Second)
	took := ev.At.Sub(t0)
	// A probe in flight when the endpoint went mute may be the first miss, so
	// the floor counts Threshold-1 whole ticks and as many probe timeouts;
	// the ceiling is every tick at its latest and every probe timing out.
	floor := time.Duration(cfg.Threshold-1) * (cfg.Interval + cfg.Timeout)
	ceiling := time.Duration(cfg.Threshold) * (cfg.Interval + cfg.Jitter + cfg.Timeout)
	if took < floor {
		t.Fatalf("silent failure announced after %v, before %d ticks could have missed (%v)", took, cfg.Threshold, floor)
	}
	if slack := 250 * time.Millisecond; took > ceiling+slack {
		t.Fatalf("silent failure announced after %v, want within %v (+%v scheduling slack)", took, ceiling, slack)
	}
	if len(ev.Failed) != 1 || ev.Signal != SignalHeartbeat {
		t.Fatalf("event = %v, want one failure by %s", ev, SignalHeartbeat)
	}
	s := m.State()[0]
	if s.SessionResets != 0 || s.LastSignal != SignalHeartbeat || s.Misses != uint64(cfg.Threshold) {
		t.Fatalf("state after the silent failure: %+v", s)
	}
	if !s.Watched {
		t.Fatalf("the session was dropped although the peer never closed it: %+v", s)
	}
}

// TestSpuriousResetsCostAProbeNotAnEvent: a controller that restarts faster
// than a probe, and a peer that reaps idle channels, both reset the session
// with nothing wrong. Each reset costs one successful probe and a re-arm.
func TestSpuriousResetsCostAProbeNotAnEvent(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		es, err := openflow.ServeEcho("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = es.Close() }()
		m := New([]Target{{ID: 0, Addr: es.Addr()}}, Config{
			Interval: 20 * time.Millisecond,
			Timeout:  200 * time.Millisecond,
			// The endpoint is dead from the first call below until the second
			// returns, which takes up to 2 ms while the loop it woke competes
			// for the CPU, at some 80 µs a probe. The threshold only has to
			// outlast that: the point is what one success does.
			Threshold: 1000,
			Seed:      3,
		})
		m.Start()
		defer m.Stop()
		waitState(t, m, "session armed", func(s TargetState) bool { return s.Watched })

		loseSession(t, m, func() {
			es.SetAlive(false)
			es.SetAlive(true)
		})
		waitState(t, m, "session re-armed after the restart", func(s TargetState) bool {
			return s.SessionResets == 1 && s.Watched && s.ConsecutiveMisses == 0
		})
		expectNoEvent(t, m, 60*time.Millisecond, "a restart that a probe survives is not a failure")
		if s := m.State()[0]; !s.Up || s.Failures != 0 {
			t.Fatalf("state after the restart: %+v", s)
		}
	})

	t.Run("idle reap", func(t *testing.T) {
		ep := serveEndpoint(t, 50*time.Millisecond)
		m := New([]Target{{ID: 0, Addr: ep.Addr()}}, Config{
			Interval:  20 * time.Millisecond,
			Timeout:   200 * time.Millisecond,
			Threshold: 2,
			Seed:      3,
		})
		m.Start()
		defer m.Stop()
		// The session outlives Interval before it is reaped, so it is
		// re-armed by the very probe the reset prompted.
		waitState(t, m, "three reaped sessions, each re-armed", func(s TargetState) bool {
			return s.SessionResets >= 3 && s.Watched
		})
		expectNoEvent(t, m, 10*time.Millisecond, "a reaped idle session is not a failure")
		if s := m.State()[0]; !s.Up || s.Failures != 0 || s.Misses != 0 {
			t.Fatalf("state after the reaps: %+v", s)
		}
	})
}

// TestAcceptThenCloseDoesNotSpin: a liveness check that passes while the
// endpoint closes every channel right after the handshake (what a custom
// Config.Probe over a dead EchoServer looks like) loses each session it opens
// at once. Opening at most one per Interval keeps the loop from spinning.
func TestAcceptThenCloseDoesNotSpin(t *testing.T) {
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()
	es.SetAlive(false)

	cfg := fastConfig(func(string, time.Duration) error { return nil })
	m := New([]Target{{ID: 0, Addr: es.Addr()}}, cfg)
	m.Start()
	defer m.Stop()
	const window = 200 * time.Millisecond
	expectNoEvent(t, m, window, "the probe never missed")
	s := m.State()[0]
	if s.SessionResets == 0 {
		t.Fatal("no session was ever lost; the endpoint did not accept-then-close")
	}
	// One tick probe and one reset probe per Interval at the very most.
	if most := uint64(2 * (window/cfg.Interval + 2)); s.Probes > most {
		t.Fatalf("%d probes and %d sessions in %v at interval %v: the loop is spinning", s.Probes, s.SessionResets, window, cfg.Interval)
	}
}

// TestLostSessionLeavesNoStaleTick: a probe prompted by a lost session that
// outlasts the pending tick must swallow that tick, not run it late. With the
// pre-1.23 timer channel go.mod selects, Reset alone would not.
func TestLostSessionLeavesNoStaleTick(t *testing.T) {
	ep := serveEndpoint(t, 0)
	const interval = 40 * time.Millisecond
	type span struct{ start, end time.Time }
	var (
		m     *Monitor
		mu    sync.Mutex
		spans []span
		reset = -1 // index of the probe the lost session prompted
	)
	probe := func(addr string, timeout time.Duration) error {
		mu.Lock()
		i := len(spans)
		spans = append(spans, span{start: time.Now()})
		prompted := reset < 0 && m.State()[0].SessionResets == 1
		if prompted {
			reset = i
		}
		mu.Unlock()
		if prompted {
			time.Sleep(interval + interval/2) // the pending tick fires meanwhile
		}
		err := defaultProbe(addr, timeout)
		mu.Lock()
		spans[i].end = time.Now()
		mu.Unlock()
		return err
	}
	m = New([]Target{{ID: 0, Addr: ep.Addr()}}, Config{
		Interval: interval,
		Jitter:   time.Millisecond,
		Timeout:  time.Second,
		Seed:     5,
		Probe:    probe,
	})
	m.Start()
	defer m.Stop()
	waitState(t, m, "session armed", func(s TargetState) bool { return s.Watched })
	loseSession(t, m, ep.CloseChannels)
	waitState(t, m, "the reset's probe and the tick after it", func(s TargetState) bool {
		mu.Lock()
		defer mu.Unlock()
		return reset >= 0 && len(spans) > reset+1
	})

	mu.Lock()
	defer mu.Unlock()
	if gap := spans[reset+1].start.Sub(spans[reset].end); gap < interval {
		t.Fatalf("a probe ran %v after the reset's probe ended, want a full interval (%v): a stale tick was delivered", gap, interval)
	}
}

// TestFlapInsideDebounceEmitsNothing: a target that comes back and goes down
// again inside one Debounce hold was never reported up, so the consumer hears
// nothing — and its next real recovery is event #1.
func TestFlapInsideDebounceEmitsNothing(t *testing.T) {
	fleet := newFakeFleet("a")
	fleet.set("a", false)
	cfg := fastConfig(fleet.probe)
	cfg.Debounce = 300 * time.Millisecond
	m := New([]Target{{ID: 0, Addr: "a"}}, cfg)
	m.MarkDown(0)
	m.Start()
	defer m.Stop()

	t0 := time.Now()
	fleet.set("a", true)
	waitState(t, m, "raw up", func(s TargetState) bool { return s.Up })
	fleet.set("a", false)
	waitState(t, m, "raw down", func(s TargetState) bool { return !s.Up })
	if took := time.Since(t0); took >= cfg.Debounce {
		t.Skipf("the flap took %v, longer than the %v hold it was meant to fit in", took, cfg.Debounce)
	}
	expectNoEvent(t, m, cfg.Debounce+50*time.Millisecond, "up then down inside one hold cancels out")

	fleet.set("a", true)
	t1 := time.Now()
	ev := waitEvent(t, m, 5*time.Second)
	if ev.Seq != 1 || len(ev.Recovered) != 1 || ev.Recovered[0] != 0 || len(ev.Failed) != 0 {
		t.Fatalf("event = %v, want #1 recovered=[0]", ev)
	}
	if held := ev.At.Sub(t1); held < cfg.Debounce {
		t.Fatalf("recovery emitted after %v, want it held for %v", held, cfg.Debounce)
	}
}

// TestStopClosesWatchedSession: Stop closes the session it holds — the peer
// sees it end — and its reader is one of the goroutines Stop waits for.
func TestStopClosesWatchedSession(t *testing.T) {
	ep := serveEndpoint(t, 0)
	m := New([]Target{{ID: 0, Addr: ep.Addr()}}, Config{Interval: 10 * time.Millisecond, Timeout: time.Second, Seed: 1})
	m.Start()
	waitState(t, m, "session armed", func(s TargetState) bool { return s.Watched })
	m.Stop()
	if _, ok := <-m.Events(); ok {
		t.Fatal("event stream still open after Stop")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.Channels() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d channel(s) still open at the peer after Stop", ep.Channels())
		}
		time.Sleep(time.Millisecond)
	}
}

// watched waits until every target holds its session and has been probed once
// more since: Watched turns true a moment before the peer has the session on
// its books, but a peer that has answered a later dial has accepted the
// earlier one.
func watched(t *testing.T, m *Monitor) {
	t.Helper()
	armedAt := make(map[int]uint64) // the probe count each session was first seen at
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := 0
		for _, s := range m.State() {
			if !s.Watched {
				delete(armedAt, s.ID)
				continue
			}
			if at, ok := armedAt[s.ID]; !ok {
				armedAt[s.ID] = s.Probes
			} else if s.Probes > at && s.ConsecutiveMisses == 0 {
				settled++
			}
		}
		if settled == len(m.State()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sessions armed and probed past: %+v", settled, len(m.State()), m.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashesTogetherAreOneEvent: two controllers killed back to back both
// lose their sessions before either verdict is in. Whichever verdict comes
// first waits for the other — that loop is visibly still verifying — and the
// consumer gets one event for both, not two to correlate.
//
// The gate in front of the probes is what makes "before either verdict" hold
// on every run: both loops are seen parked in their verification before either
// may finish it. Without it the second kill itself races the first verdict —
// SetAlive(false) returns once the endpoint's goroutines have let go of their
// channels, and on two cores kept busy by the first target's probes that can
// take longer than those probes do — and what is then emitted first is, by the
// rule under test, a lone crash. The probes also get the round trip a WAN
// would give them: on loopback a verification is all CPU, two of them on two
// busy cores run one after the other rather than side by side, and the second
// verdict then trails the first by a whole verification, which is exactly as
// long as the first is prepared to wait.
func TestCrashesTogetherAreOneEvent(t *testing.T) {
	var echos [2]*openflow.EchoServer
	for i := range echos {
		es, err := openflow.ServeEcho("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = es.Close() }()
		echos[i] = es
	}
	gate := newGatedProbe("")
	gate.rtt = 2 * time.Millisecond
	m := New([]Target{{ID: 3, Addr: echos[0].Addr()}, {ID: 4, Addr: echos[1].Addr()}}, Config{
		Interval:  50 * time.Millisecond,
		Timeout:   time.Second,
		Threshold: 3,
		Seed:      42,
		Probe:     gate.probe,
	})
	m.Start()
	defer m.Stop()
	watched(t, m)

	gate.armed.Store(true)
	echos[0].SetAlive(false)
	echos[1].SetAlive(false)
	for i := range echos {
		i := i
		waitUntil(t, m, "both sessions lost", func(s []TargetState) bool { return s[i].SessionResets == 1 })
	}
	close(gate.open)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Failed) != 2 || ev.Failed[0] != 3 || ev.Failed[1] != 4 || ev.Signal != SignalReset {
		t.Fatalf("event = %v, want failed=[3 4] by %s in one event", ev, SignalReset)
	}
	// Held is zero only if the second verdict was already queued when the
	// coalescer picked up the first.
	by := SignalReset
	if ev.Held > 0 {
		by += ", held " + ev.Held.Round(time.Microsecond).String()
	}
	if want := "event #1: failed=[3 4] (" + by + ") recovered=[]"; ev.String() != want {
		t.Fatalf("String() = %q, want %q", ev.String(), want)
	}
	expectNoEvent(t, m, 20*time.Millisecond, "both failures were in the first event")
	for _, s := range m.State() {
		if s.Up || s.Misses != 3 || s.LastSignal != SignalReset {
			t.Fatalf("target %d after the event: %+v", s.ID, s)
		}
	}
}

// waitUntil polls the detector's state until cond holds.
func waitUntil(t *testing.T, m *Monitor, what string, cond func([]TargetState) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(m.State()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached; last state %+v", what, m.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedProbe is the default probe behind a gate: while shut says so, a probe
// of addr (of any address, if addr is empty) reports on parked that it is in
// flight and waits for the gate to open. Past the gate a probe takes rtt
// longer, the round trip a loopback socket does not have.
type gatedProbe struct {
	addr   string
	rtt    time.Duration
	shut   func() bool
	armed  atomic.Bool // a ready-made shut
	parked chan struct{}
	open   chan struct{}
}

func newGatedProbe(addr string) *gatedProbe {
	g := &gatedProbe{addr: addr, parked: make(chan struct{}, 1), open: make(chan struct{})}
	g.shut = g.armed.Load
	return g
}

func (g *gatedProbe) probe(addr string, timeout time.Duration) error {
	if (g.addr == "" || addr == g.addr) && g.shut() {
		select {
		case g.parked <- struct{}{}:
		default:
		}
		<-g.open
		time.Sleep(g.rtt)
	}
	return defaultProbe(addr, timeout)
}

// TestLoneCrashIsNotHeldByAHeartbeatProbe: only a loop verifying a lost
// session holds a neighbour's verdict. With another target's heartbeat probe
// in flight — parked behind a gate for as long as the test likes — a crash is
// announced at once: the event arrives while the gate is still shut, unheld,
// its At the verdict's own instant give or take a hand-off between goroutines.
func TestLoneCrashIsNotHeldByAHeartbeatProbe(t *testing.T) {
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()
	busy := serveEndpoint(t, 0)
	gate := newGatedProbe(busy.Addr())
	m := New([]Target{{ID: 0, Addr: es.Addr()}, {ID: 1, Addr: busy.Addr()}}, Config{
		Interval:  50 * time.Millisecond,
		Timeout:   10 * time.Second,
		Threshold: 2,
		Seed:      9,
		Probe:     gate.probe,
	})
	m.Start()
	defer m.Stop()
	defer close(gate.open)
	watched(t, m)
	gate.armed.Store(true)
	<-gate.parked // target 1's next tick is now in flight, and stays there

	es.SetAlive(false)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Failed) != 1 || ev.Failed[0] != 0 || ev.Signal != SignalReset {
		t.Fatalf("event = %v, want failed=[0] by %s", ev, SignalReset)
	}
	if ev.Held != 0 {
		t.Fatalf("event = %v: a lone crash was held for %v behind a heartbeat probe", ev, ev.Held)
	}
	verdict := m.State()[0].LastProbeAt
	if late := ev.At.Sub(verdict); late > 50*time.Millisecond {
		t.Fatalf("event stamped %v after the verdict", late)
	}
}

// TestHungNeighbourCostsOneVerificationNotTimeout: a verdict waits for a
// neighbour that is verifying a lost session of its own, but not on the
// neighbour's terms. Here the neighbour's probes hang (until the test opens
// the gate; Timeout is ten seconds): the crash is announced, alone, after
// about as long again as its own verification took.
func TestHungNeighbourCostsOneVerificationNotTimeout(t *testing.T) {
	hung := serveEndpoint(t, 0)
	es, err := openflow.ServeEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = es.Close() }()
	var m *Monitor
	gate := newGatedProbe(hung.Addr())
	// Heartbeat probes pass; the ones that verify a lost session hang.
	gate.shut = func() bool { return m.State()[0].SessionResets > 0 }
	m = New([]Target{{ID: 0, Addr: hung.Addr()}, {ID: 1, Addr: es.Addr()}}, Config{
		Interval:  50 * time.Millisecond,
		Timeout:   10 * time.Second,
		Threshold: 2,
		Seed:      42,
		Probe:     gate.probe,
	})
	m.Start()
	defer m.Stop()
	defer close(gate.open)
	watched(t, m)
	loseSession(t, m, hung.CloseChannels)
	<-gate.parked // target 0 is verifying its lost session, and will be for a while

	killed := time.Now()
	es.SetAlive(false)
	ev := waitEvent(t, m, 5*time.Second)
	if len(ev.Failed) != 1 || ev.Failed[0] != 1 || ev.Signal != SignalReset {
		t.Fatalf("event = %v, want failed=[1] alone by %s", ev, SignalReset)
	}
	// The verification took no longer than kill-to-verdict, and the hold no
	// longer than the verification (plus what a timer and a hand-off add).
	verification := m.State()[1].LastProbeAt.Sub(killed)
	if ev.Held <= 0 || ev.Held > verification+50*time.Millisecond {
		t.Fatalf("event = %v: held %v behind a hung neighbour, want more than 0 and about the %v its own verification took at most",
			ev, ev.Held, verification)
	}
	if s := m.State()[0]; !s.Up || s.Failures != 0 {
		t.Fatalf("the hung neighbour was flipped: %+v", s)
	}
}
