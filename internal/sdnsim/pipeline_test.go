package sdnsim

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// These tests pin the push session's wire contract by counting, not timing:
// how many transport writes a session costs, and what the switch-side fence
// lets through.

// testMods builds n FlowAdd mods for flow IDs the ATT workload never uses,
// so the entries they install are distinguishable from steady-state ones.
func testMods(n int) []openflow.FlowMod {
	mods := make([]openflow.FlowMod, n)
	for i := range mods {
		mods[i] = openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: 100,
			Match:    openflow.Match{FlowID: uint32(1_000_000 + i)},
			NextHop:  1,
		}
	}
	return mods
}

// pushMods runs one push session of mods, in full, and reports what
// pushOnce's session says of it.
func pushMods(opts PushOptions, addr string, gen uint64, mods []openflow.FlowMod) (acked int, sentAny, lost bool, err error) {
	s, err := pushOnce(opts, addr, gen, switchPush{mods: mods})
	return s.acked, s.sentAny, s.lost, err
}

// oneAgent serves switch 13 of the ATT network.
func oneAgent(t *testing.T) (*Agent, map[topo.NodeID]string) {
	t.Helper()
	a, err := ServeSwitch(network(t).Switches[13], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a, map[topo.NodeID]string{13: a.Addr()}
}

// countingConn counts the Write calls that reach a TCP connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func TestPushSessionWritesIndependentOfBatchSize(t *testing.T) {
	agent, addrs := oneAgent(t)
	var perSession []int64
	applied := 0
	for _, n := range []int{1, 50, 200} {
		var cc *countingConn
		var handshake int64
		dial := func(addr string, timeout time.Duration) (*openflow.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			cc = &countingConn{Conn: nc}
			c := openflow.NewConn(cc)
			if err := c.Handshake(); err != nil {
				_ = nc.Close()
				return nil, err
			}
			handshake = cc.writes.Load()
			return c, nil
		}
		acked, sentAny, _, err := pushMods(PushOptions{Dial: dial}.withDefaults(), addrs[13], 1, testMods(n))
		if err != nil || acked != n || sentAny {
			t.Fatalf("n=%d: acked %d, sentAny %v, err %v", n, acked, sentAny, err)
		}
		applied += n
		if got := agent.FlowModsApplied(); got != applied {
			t.Fatalf("n=%d: agent applied %d flow-mods in total, want %d", n, got, applied)
		}
		perSession = append(perSession, cc.writes.Load()-handshake)
	}
	for _, w := range perSession {
		if w != perSession[0] || w < 1 || w > 2 {
			t.Fatalf("transport writes after the handshake for 1, 50, 200 mods = %v, want one constant ≤ 2", perSession)
		}
	}
}

// TestAgentAnswersABatchInOneWrite is the agent-side twin of
// TestWarmPushIsOneWriteThenItsReads: a push session — claim, n flow-mods,
// barrier — reaches the agent in one flush, and the agent answers it, role
// reply and barrier reply, in one transport write. Each batch fits one read
// of the agent's buffer, so net.Pipe hands it over whole.
func TestAgentAnswersABatchInOneWrite(t *testing.T) {
	a := &Agent{nonce: 1, sw: network(t).Switches[13], role: openflow.RoleEqual}
	applied := 0
	for gen, n := range []int{1, 50, 100} {
		ctrlEnd, agentEnd := net.Pipe()
		cc := &countingConn{Conn: agentEnd}
		served := make(chan struct{})
		go func() {
			defer close(served)
			a.serve(openflow.NewConn(cc))
		}()
		conn := openflow.NewConn(ctrlEnd)
		conn.SetIOTimeout(5 * time.Second)
		roleXID, err := conn.Queue(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: uint64(gen + 1)})
		if err != nil {
			t.Fatal(err)
		}
		barrierXID, err := queueBatch(conn, testMods(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg, _, err := conn.RecvXID(roleXID); err != nil {
			t.Fatalf("n=%d: role reply: %v %v", n, msg, err)
		}
		if msg, _, err := conn.RecvXID(barrierXID); err != nil {
			t.Fatalf("n=%d: barrier reply: %v %v", n, msg, err)
		} else if _, ok := msg.(openflow.BarrierReply); !ok {
			t.Fatalf("n=%d: %v to the barrier", n, msg.MsgType())
		}
		_ = conn.Close()
		<-served
		applied += n
		if got := a.FlowModsApplied(); got != applied {
			t.Fatalf("n=%d: agent applied %d flow-mods in total, want %d", n, got, applied)
		}
		if w := cc.writes.Load(); w != 1 {
			t.Fatalf("n=%d: the agent answered the batch in %d writes, want 1", n, w)
		}
	}
}

// TestAgentDiscardsModsBehindRefusedClaim: a whole session — stale claim,
// mods, barrier — arrives in one flush, before the driver could know the
// claim was refused. Nothing may be applied, the claim's XID gets the
// stale-generation error, and the driver's resync then succeeds cleanly.
func TestAgentDiscardsModsBehindRefusedClaim(t *testing.T) {
	agent, addrs := oneAgent(t)
	if _, _, err := FenceAgents(addrs, 50, PushOptions{}); err != nil {
		t.Fatal(err)
	}
	mods := testMods(20)

	conn, err := openflow.DialTimeout(addrs[13], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetIOTimeout(2 * time.Second)
	roleXID, err := conn.Queue(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if _, err := conn.Queue(m); err != nil {
			t.Fatal(err)
		}
	}
	barrierXID, err := conn.Queue(openflow.BarrierRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.RecvXID(roleXID)
	var re *openflow.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("stale claim answered with %v, want a remote error", err)
	}
	if g, ok := re.StaleGeneration(); !ok || g != 50 {
		t.Fatalf("stale error carries generation %d (ok=%v), want 50", g, ok)
	}
	if _, _, err := conn.RecvXID(barrierXID); err != nil {
		t.Fatalf("barrier behind a refused claim: %v", err)
	}
	if got := agent.FlowModsApplied(); got != 0 {
		t.Fatalf("agent applied %d flow-mods from a refused connection", got)
	}
	if got := agent.FlowModsRefused(); got != len(mods) {
		t.Fatalf("agent refused %d flow-mods, want %d", got, len(mods))
	}
	// A later accepted claim on the same connection lifts the fence.
	if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(mods[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Request(openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if got := agent.FlowModsApplied(); got != 1 {
		t.Fatalf("agent applied %d flow-mods after the reclaim, want 1", got)
	}

	// The driver's view of the same thing: the refused first attempt is not
	// partial state, and the resynced second one lands everything.
	acked, sentAny, lost, err := pushMods(PushOptions{}.withDefaults(), addrs[13], 2, mods)
	if acked != 0 || sentAny || lost || !errors.As(err, &re) {
		t.Fatalf("refused attempt: acked %d, sentAny %v, err %v", acked, sentAny, err)
	}
	res, dirty, err := pushSwitch(addrs, switchPush{sw: 13, mods: mods}, newGen(2), PushOptions{}.withDefaults())
	if err != nil || dirty || res.attempts != 2 || res.mods != len(mods) {
		t.Fatalf("resync: %+v, dirty %v, err %v", res, dirty, err)
	}
	if got := agent.FlowModsApplied(); got != 1+len(mods) {
		t.Fatalf("agent applied %d flow-mods, want %d", got, 1+len(mods))
	}
}

// TestAgentDiscardsModsOfSupersededConnection: A's claim was accepted, then
// B claimed a newer generation. A is the deposed leader still talking: its
// later mods must not land, B's must.
func TestAgentDiscardsModsOfSupersededConnection(t *testing.T) {
	agent, addrs := oneAgent(t)
	dialAs := func(gen uint64) *openflow.Conn {
		t.Helper()
		c, err := openflow.DialTimeout(addrs[13], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		c.SetIOTimeout(2 * time.Second)
		if _, _, err := c.Request(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: gen}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	push := func(c *openflow.Conn, m openflow.FlowMod) {
		t.Helper()
		if _, err := c.Queue(m); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Request(openflow.BarrierRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	mods := testMods(3)
	a := dialAs(7)
	push(a, mods[0])
	b := dialAs(8)
	push(a, mods[1])
	push(b, mods[2])

	if applied, refused := agent.FlowModsApplied(), agent.FlowModsRefused(); applied != 2 || refused != 1 {
		t.Fatalf("applied %d, refused %d; want 2 and 1", applied, refused)
	}
	for i, want := range []bool{true, false, true} {
		if _, has := agent.Entry(flow.ID(mods[i].Match.FlowID)); has != want {
			t.Fatalf("mod %d: entry present = %v, want %v", i, has, want)
		}
	}
}

// resetFirstDial returns a DialFunc whose first connection dies on its
// first write after the Hello handshake — chaos lets a strict prefix of
// that write through, then resets — while later connections are clean. The
// handshake runs on the bare connection so the reset hits the session's
// batch, not the Hello.
func resetFirstDial(seed int64) DialFunc {
	var dials atomic.Int64
	return func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if err := openflow.NewConn(nc).Handshake(); err != nil {
			_ = nc.Close()
			return nil, err
		}
		if dials.Add(1) > 1 {
			return openflow.NewConn(nc), nil
		}
		return openflow.NewConn(chaos.NewTransport(nc, chaos.Config{Seed: seed, ResetProb: 1, MaxResets: 1})), nil
	}
}

// TestPushResetMidBatchIsDirtyThenConverges cuts a session's one batch
// write short: the attempt must report partial state (a strict prefix of
// the mods did land), and a push that hits the same fault must retry and
// still converge on the plan. Warm, the cut lands on a reused standby
// session: the same partial state, the session is not handed back, and the
// retry is the free redial of a lost session (MaxAttempts 1 converges).
func TestPushResetMidBatchIsDirtyThenConverges(t *testing.T) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			agent, err := ServeSwitch(network(t).Switches[13], "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			mods := testMods(50)
			reset := resetFirstDial(11)
			opts := PushOptions{Dial: func(addr string, timeout time.Duration) (*openflow.Conn, error) {
				c, err := reset(addr, timeout)
				// The switch is serving the channel before the batch is cut,
				// so "no session left" below means it read it to the end.
				openSessionsReach(agent, 1)
				return c, err
			}}.withDefaults()
			if warm {
				opts.Sessions = NewSessions()
				defer opts.Sessions.Close()
				opts.Sessions.Warm(map[topo.NodeID]string{13: agent.Addr()}, opts)
			}
			acked, sentAny, lost, err := pushMods(opts, agent.Addr(), 1, mods)
			if !errors.Is(err, chaos.ErrInjectedReset) || acked != 0 || !sentAny || lost != warm {
				t.Fatalf("cut batch: acked %d, sentAny %v, lost %v, err %v", acked, sentAny, lost, err)
			}
			if warm {
				if st := opts.Sessions.Stats(); st.Idle != 0 || st.Reused != 1 || st.StaleRedialled != 1 {
					t.Fatalf("cut batch on a reused session: %+v, want it counted stale and not handed back", st)
				}
			}
			// The agent has read the dead connection to its end once it
			// stops serving it.
			waitOpenSessions(t, agent, 0)
			if err := agent.Close(); err != nil {
				t.Fatal(err)
			}
			if got := agent.FlowModsApplied(); got <= 0 || got >= len(mods) {
				t.Fatalf("agent applied %d of %d flow-mods from the cut batch, want a strict prefix", got, len(mods))
			}

			fx := newPushFixture(t, []int{3})
			addrs := pushedAddrs(fx)
			opts = PushOptions{
				Seed:        1,
				Dial:        resetFirstDial(11),
				BaseBackoff: time.Millisecond,
				MaxBackoff:  2 * time.Millisecond,
			}
			if warm {
				opts.MaxAttempts = 1
				opts.Sessions = NewSessions()
				defer opts.Sessions.Close()
				opts.Sessions.Warm(addrs, opts)
			}
			rep, err := PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Demoted) != 0 {
				t.Fatalf("one reset demoted %v", rep.Demoted)
			}
			retried := 0
			for _, out := range rep.Outcomes {
				if out.Attempts > 1 {
					retried++
				}
				if out.Dirty {
					t.Fatalf("switch %d converged but is still reported dirty", out.Switch)
				}
			}
			if retried != 1 {
				t.Fatalf("%d switches retried, want exactly the one whose batch was cut", retried)
			}
			checkTablesMatch(t, fx, rep)
		})
	}
}
