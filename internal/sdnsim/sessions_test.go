package sdnsim

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// These tests pin the standby-session contract the way pipeline_test.go pins
// the push session's: by counting dials and transport operations on real
// loopback sockets. The only clock they read is "well under one backoff".

// opLog records, in order, the transport operations of every channel its
// dial opens: 'w' when a Write is called and 'r' when a Read is issued, not
// when it returns — that is what tells a read parked on an idle session from
// one issued by the push that awaits the reply.
type opLog struct {
	mu      sync.Mutex
	ops     []byte
	dials   int
	reading int // Reads issued and not yet returned
}

type loggedConn struct {
	net.Conn
	log *opLog
}

func (c *loggedConn) Read(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.ops = append(c.log.ops, 'r')
	c.log.reading++
	c.log.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	c.log.reading--
	c.log.mu.Unlock()
	return n, err
}

func (c *loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.log.ops = append(c.log.ops, 'w')
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

func (l *opLog) dial(addr string, timeout time.Duration) (*openflow.Conn, error) {
	l.mu.Lock()
	l.dials++
	l.mu.Unlock()
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := openflow.NewConn(&loggedConn{Conn: nc, log: l})
	if err := c.Handshake(); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// mark returns the log's position, the dials so far and the reads in flight.
func (l *opLog) mark() (pos, dials, reading int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops), l.dials, l.reading
}

func (l *opLog) since(pos int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.ops[pos:])
}

// openSessionsReach waits, for up to five seconds, until the agent serves
// exactly n channels: the switch registers an accepted session, and notices
// a closed one, asynchronously.
func openSessionsReach(a *Agent, n int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for a.OpenSessions() != n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func waitOpenSessions(t *testing.T, a *Agent, n int) {
	t.Helper()
	if !openSessionsReach(a, n) {
		t.Fatalf("agent %s serves %d sessions, want %d", a.Addr(), a.OpenSessions(), n)
	}
}

// pushedAddrs returns the agent addresses of the switches a solution maps,
// the ones a push of it opens sessions to.
func pushedAddrs(fx *pushFixture) map[topo.NodeID]string {
	addrs := make(map[topo.NodeID]string)
	for i, sw := range fx.inst.Switches {
		if fx.sol.SwitchController[i] >= 0 {
			addrs[sw] = fx.agents[sw].Addr()
		}
	}
	return addrs
}

// TestAgentCloseEndsOpenSessions: a controller may hold its channel open for
// good, so Close must end it rather than wait for the controller to hang up.
func TestAgentCloseEndsOpenSessions(t *testing.T) {
	agent, err := ServeSwitch(network(t).Switches[13], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := openflow.DialTimeout(agent.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	waitOpenSessions(t, agent, 1)

	closed := make(chan error, 1)
	go func() { closed <- agent.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Agent.Close still waiting on an open controller channel")
	}
	if n := agent.OpenSessions(); n != 0 {
		t.Fatalf("closed agent still serves %d sessions", n)
	}
	conn.SetIOTimeout(5 * time.Second)
	if _, _, err := conn.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("controller side of a closed agent reads %v, want EOF", err)
	}
}

// TestWarmPushIsOneWriteThenItsReads is the warm twin of
// TestPushSessionWritesIndependentOfBatchSize: on a standby session a push
// session is one transport write, then the reads that await its replies —
// none issued before the write, none left parked after — and no dial.
func TestWarmPushIsOneWriteThenItsReads(t *testing.T) {
	agent, addrs := oneAgent(t)
	log := &opLog{}
	set := NewSessions()
	defer set.Close()
	opts := PushOptions{Dial: log.dial, Sessions: set}.withDefaults()
	set.Warm(addrs, opts)
	if st := set.Stats(); st.Idle != 1 || st.Dialled != 1 {
		t.Fatalf("after the warm-up: %+v, want one session dialled and idle", st)
	}

	applied := 0
	for gen, n := range []int{1, 50, 200} {
		pos, dials, reading := log.mark()
		if reading != 0 {
			t.Fatalf("n=%d: %d read(s) parked on the idle session", n, reading)
		}
		acked, sentAny, lost, err := pushMods(opts, addrs[13], uint64(gen+1), testMods(n))
		if err != nil || acked != n || sentAny || lost {
			t.Fatalf("n=%d: acked %d, sentAny %v, lost %v, err %v", n, acked, sentAny, lost, err)
		}
		applied += n
		if got := agent.FlowModsApplied(); got != applied {
			t.Fatalf("n=%d: agent applied %d flow-mods in total, want %d", n, got, applied)
		}
		ops := log.since(pos)
		if !strings.HasPrefix(ops, "wr") || strings.Count(ops, "w") != 1 {
			t.Fatalf("n=%d: transport operations %q, want one write followed by its reads", n, ops)
		}
		if _, d, _ := log.mark(); d != dials {
			t.Fatalf("n=%d: a warm push dialled %d time(s)", n, d-dials)
		}
	}
	if st := set.Stats(); st.Idle != 1 || st.Reused != 3 || st.Dialled != 1 || st.StaleRedialled != 0 {
		t.Fatalf("after three warm pushes: %+v", st)
	}
	if n := agent.OpenSessions(); n != 1 {
		t.Fatalf("agent serves %d sessions, want the one standby", n)
	}
}

// TestSecondPushDialsNothing: keep-alive alone, without a warm-up. The first
// push dials each switch once and leaves the sessions standing by; the
// fail-back and the next recovery ride on them; closing the set leaves no
// session on any switch.
func TestSecondPushDialsNothing(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	addrs := pushedAddrs(fx)
	switches := make([]topo.NodeID, 0, len(addrs))
	for sw := range addrs {
		switches = append(switches, sw)
	}
	log := &opLog{}
	set := NewSessions()
	opts := PushOptions{Dial: log.dial, Sessions: set, GenerationID: 1}

	rep, err := PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, opts)
	if err != nil || len(rep.Demoted) != 0 {
		t.Fatalf("first push: demoted %v, err %v", rep.Demoted, err)
	}
	n := len(addrs)
	if _, dials, _ := log.mark(); dials != n {
		t.Fatalf("first push dialled %d times for %d switches", dials, n)
	}
	if st := set.Stats(); st.Idle != n || st.Reused != 0 {
		t.Fatalf("after the first push: %+v, want %d idle", st, n)
	}

	opts.GenerationID = 2
	rr, err := RestoreIdeal(addrs, fx.inst.Flows, switches, opts)
	if err != nil || len(rr.Failed) != 0 {
		t.Fatalf("restore: failed %v, err %v", rr.Failed, err)
	}
	opts.GenerationID = 3
	rep, err = PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, opts)
	if err != nil || len(rep.Demoted) != 0 {
		t.Fatalf("second push: demoted %v, err %v", rep.Demoted, err)
	}
	if _, dials, reading := log.mark(); dials != n || reading != 0 {
		t.Fatalf("after restore and second push: %d dials (want %d), %d reads parked", dials, n, reading)
	}
	for _, out := range rep.Outcomes {
		if out.Attempts > 1 {
			t.Fatalf("switch %d took %d attempts on a healthy standby session", out.Switch, out.Attempts)
		}
	}
	if st := set.Stats(); st.Idle != n || st.Reused != uint64(2*n) || st.Dialled != uint64(n) {
		t.Fatalf("after restore and second push: %+v, want %d idle, %d reused", st, n, 2*n)
	}
	checkTablesMatch(t, fx, rep)

	set.Close()
	for _, a := range fx.agents {
		waitOpenSessions(t, a, 0)
	}
	// A closed set keeps nothing: the drivers are back to dial-per-use.
	opts.GenerationID = 4
	if _, err := RestoreIdeal(addrs, fx.inst.Flows, switches, opts); err != nil {
		t.Fatal(err)
	}
	if st := set.Stats(); st.Idle != 0 {
		t.Fatalf("closed set holds %d sessions", st.Idle)
	}
	for _, a := range fx.agents {
		waitOpenSessions(t, a, 0)
	}
}

// TestRestartedSwitchCostsARedialNotTheBudget: a switch that restarted under
// its standby session is healthy; finding the session dead must cost one
// immediate redial — no backoff, none of the attempt budget.
func TestRestartedSwitchCostsARedialNotTheBudget(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	addrs := pushedAddrs(fx)
	set := NewSessions()
	defer set.Close()
	opts := PushOptions{
		Sessions:    set,
		MaxAttempts: 1,
		BaseBackoff: 5 * time.Second,
		MaxBackoff:  5 * time.Second,
	}
	set.Warm(addrs, opts)
	if st := set.Stats(); st.Idle != len(addrs) {
		t.Fatalf("warm-up left %+v, want %d idle", st, len(addrs))
	}

	var restarted topo.NodeID
	for sw := range addrs {
		restarted = sw
		break
	}
	addr := addrs[restarted]
	if err := fx.agents[restarted].Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ServeSwitch(fx.n.Switches[restarted], addr)
	if err != nil {
		t.Fatal(err)
	}
	fx.agents[restarted] = again

	start := time.Now()
	rep, err := PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > opts.BaseBackoff/2 {
		t.Fatalf("push took %v: a lost standby session was backed off", took)
	}
	if len(rep.Demoted) != 0 {
		t.Fatalf("MaxAttempts 1 demoted %v: the redial was charged to the budget", rep.Demoted)
	}
	for _, out := range rep.Outcomes {
		want := 0
		if _, pushed := addrs[out.Switch]; pushed {
			want = 1
		}
		if out.Switch == restarted {
			want = 2
		}
		if out.Attempts != want || out.Dirty {
			t.Fatalf("switch %d: %d attempts (want %d), dirty %v", out.Switch, out.Attempts, want, out.Dirty)
		}
	}
	if st := set.Stats(); st.StaleRedialled != 1 || st.Idle != len(addrs) {
		t.Fatalf("after the push: %+v, want one stale redial and every session idle again", st)
	}
	checkTablesMatch(t, fx, rep)
}

// TestDeposedLeaderIsFencedOnItsStandbySession: the fence is per claim, not
// per connection. The old leader's session stays open across the new
// leader's takeover; its next push on it must be refused exactly as a fresh
// dial's would be — mods discarded, ErrFenced — without a redial.
func TestDeposedLeaderIsFencedOnItsStandbySession(t *testing.T) {
	agent, addrs := oneAgent(t)
	mods := testMods(5)
	sp := switchPush{sw: 13, mods: mods}
	leader := func(gen uint64) (PushOptions, *opLog) {
		log := &opLog{}
		set := NewSessions()
		t.Cleanup(set.Close)
		return PushOptions{
			Dial: log.dial, Sessions: set, MaxAttempts: 1,
			GenerationID: gen, GenerationLimit: gen + 99,
		}.withDefaults(), log
	}
	older, olderLog := leader(100)
	newer, _ := leader(200)

	if _, _, err := pushSwitch(addrs, sp, newGen(older.GenerationID), older); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pushSwitch(addrs, sp, newGen(newer.GenerationID), newer); err != nil {
		t.Fatal(err)
	}
	if n := agent.OpenSessions(); n != 2 {
		t.Fatalf("agent serves %d sessions, want one per leader", n)
	}
	applied := agent.FlowModsApplied()

	res, dirty, err := pushSwitch(addrs, sp, newGen(older.GenerationID), older)
	if !errors.Is(err, ErrFenced) || dirty || res.attempts != 1 {
		t.Fatalf("deposed leader's push: %+v, dirty %v, err %v; want one fenced, clean attempt", res, dirty, err)
	}
	if _, dials, _ := olderLog.mark(); dials != 1 {
		t.Fatalf("deposed leader dialled %d times, want the refusal to land on its standby session", dials)
	}
	// The refusal of the claim is answered before the mods behind it are
	// read and discarded.
	for deadline := time.Now().Add(5 * time.Second); agent.FlowModsRefused() != len(mods); {
		if time.Now().After(deadline) {
			t.Fatalf("agent refused %d flow-mods of the deposed leader, want %d", agent.FlowModsRefused(), len(mods))
		}
		time.Sleep(time.Millisecond)
	}
	if got := agent.FlowModsApplied(); got != applied {
		t.Fatalf("agent applied %d flow-mods of the deposed leader", got-applied)
	}
	if g, _ := agent.GenerationID(); g != newer.GenerationID {
		t.Fatalf("agent generation %d, want the newer leader's %d", g, newer.GenerationID)
	}
	// The same through the fencing sweep, which shares the push session.
	fenced, _, err := FenceAgents(addrs, older.GenerationID, older)
	if fenced != 0 || !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed leader's sweep: fenced %d, err %v", fenced, err)
	}
	// The newer leader's own session is untouched by all of it.
	if _, _, err := pushSwitch(addrs, sp, newGen(newer.GenerationID), newer); err != nil {
		t.Fatal(err)
	}
	if st := newer.Sessions.Stats(); st.Dialled != 1 || st.Reused != 1 {
		t.Fatalf("newer leader's sessions: %+v", st)
	}
}

// TestLeftoverReplyFramesAreSkippedOnReuse: with every request frame
// duplicated the switch answers everything twice, so each push leaves a
// second barrier reply unread on the session. The next push must skip it by
// XID instead of mistaking it for its own reply.
func TestLeftoverReplyFramesAreSkippedOnReuse(t *testing.T) {
	agent, addrs := oneAgent(t)
	dial := func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if err := openflow.NewConn(nc).Handshake(); err != nil {
			_ = nc.Close()
			return nil, err
		}
		return openflow.NewConn(chaos.NewTransport(nc, chaos.Config{Seed: 3, DupProb: 1})), nil
	}
	set := NewSessions()
	defer set.Close()
	opts := PushOptions{Dial: dial, Sessions: set}.withDefaults()
	for gen, n := range []int{4, 9, 1} {
		acked, sentAny, lost, err := pushMods(opts, addrs[13], uint64(gen+1), testMods(n))
		if err != nil || acked != n || sentAny || lost {
			t.Fatalf("push %d: acked %d, sentAny %v, lost %v, err %v", gen+1, acked, sentAny, lost, err)
		}
	}
	if st := set.Stats(); st.Dialled != 1 || st.Reused != 2 || st.Idle != 1 {
		t.Fatalf("three pushes over one duplicating session: %+v", st)
	}
	if got, want := agent.FlowModsApplied(), 2*(4+9+1); got != want {
		t.Fatalf("agent applied %d flow-mods, want %d (each frame twice)", got, want)
	}
}

// TestWarmLeavesBusyAndStandingSessionsAlone: one session per address at a
// time. Warm dials only addresses with no session idle and none in use, and
// a dial that completes after Close is closed, not kept.
func TestWarmLeavesBusyAndStandingSessionsAlone(t *testing.T) {
	agent, addrs := oneAgent(t)
	log := &opLog{}
	set := NewSessions()
	opts := PushOptions{Dial: log.dial, Sessions: set}.withDefaults()

	conn, reused, err := set.acquire(addrs[13], opts)
	if err != nil || reused {
		t.Fatalf("cold acquire: reused %v, err %v", reused, err)
	}
	set.Warm(addrs, opts)
	if _, dials, _ := log.mark(); dials != 1 {
		t.Fatalf("warm-up dialled a switch whose session is in use (%d dials)", dials)
	}
	set.release(addrs[13], conn, true, false)
	set.Warm(addrs, opts)
	if _, dials, _ := log.mark(); dials != 1 || set.Stats().Idle != 1 {
		t.Fatalf("warm-up dialled a switch whose session is idle (%d dials, %+v)", dials, set.Stats())
	}

	// A warm-up dial in flight when the set closes.
	conn, _, err = set.acquire(addrs[13], opts)
	if err != nil {
		t.Fatal(err)
	}
	set.release(addrs[13], conn, false, false)
	dialling, proceed := make(chan struct{}), make(chan struct{})
	slow := opts
	slow.Dial = func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		close(dialling)
		<-proceed
		return log.dial(addr, timeout)
	}
	warmed := make(chan struct{})
	go func() {
		set.Warm(addrs, slow)
		close(warmed)
	}()
	<-dialling
	set.Close()
	close(proceed)
	<-warmed
	if st := set.Stats(); st.Idle != 0 {
		t.Fatalf("a dial that completed after Close was kept: %+v", st)
	}
	waitOpenSessions(t, agent, 0)
	set.Warm(addrs, opts)
	if _, dials, _ := log.mark(); dials != 2 {
		t.Fatalf("a closed set dialled again (%d dials, want 2)", dials)
	}
}

// TestSessionsConcurrentUse hammers one set from concurrent pushes, warm-ups
// and a final Close: the race detector's view of the set, and the proof that
// however the holds interleave no session outlives the set.
func TestSessionsConcurrentUse(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	addrs := pushedAddrs(fx)
	set := NewSessions()
	opts := PushOptions{Sessions: set}.withDefaults()
	mods := testMods(3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if g == 0 {
					set.Warm(addrs, opts)
					continue
				}
				for sw := range addrs {
					if _, _, err := pushSwitch(addrs, switchPush{sw: sw, mods: mods}, newGen(1), opts); err != nil {
						t.Errorf("switch %d: %v", sw, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := set.Stats(); st.Idle != len(addrs) || st.StaleRedialled != 0 {
		t.Fatalf("after the storm: %+v, want %d idle", st, len(addrs))
	}
	for sw := range addrs {
		if n := fx.agents[sw].OpenSessions(); n < 1 {
			t.Fatalf("switch %d serves %d sessions, want its standby", sw, n)
		}
	}
	set.Close()
	for sw := range addrs {
		waitOpenSessions(t, fx.agents[sw], 0)
	}
}
