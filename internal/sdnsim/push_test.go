package sdnsim

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// pushFixture compiles one ATT failure case with live agents for every
// offline switch and returns everything a push test needs.
type pushFixture struct {
	n      *Network
	inst   *scenario.Instance
	sol    *core.Solution
	agents map[topo.NodeID]*Agent
}

func newPushFixture(t *testing.T, failed []int) *pushFixture {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range failed {
		if err := n.StopController(j); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := scenario.Build(dep, flows, failed)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	fx := &pushFixture{n: n, inst: inst, sol: sol, agents: make(map[topo.NodeID]*Agent)}
	for _, swID := range inst.Switches {
		a, err := ServeSwitch(n.Switches[swID], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fx.agents[swID] = a
	}
	t.Cleanup(func() {
		for _, a := range fx.agents {
			_ = a.Close()
		}
	})
	return fx
}

// checkTablesMatch asserts that, for every switch the fixture's plan maps and
// the push did not demote, the agent's flow table holds exactly the entries
// the plan activates.
func checkTablesMatch(t *testing.T, fx *pushFixture, rep *RecoveryReport) {
	t.Helper()
	for k, pr := range fx.inst.Problem.Pairs {
		swID := fx.inst.Switches[pr.Switch]
		if fx.sol.SwitchController[pr.Switch] < 0 || slices.Contains(rep.Demoted, swID) {
			continue // legacy/demoted switch: table frozen, not programmable
		}
		agent, ok := fx.agents[swID]
		if !ok {
			t.Fatalf("mapped switch %d has no agent", swID)
		}
		lid := fx.inst.FlowIDs[pr.Flow]
		_, has := agent.Entry(lid)
		if has != fx.sol.Active[k] {
			t.Fatalf("switch %d flow %d: entry=%v, want %v", swID, lid, has, fx.sol.Active[k])
		}
	}
}

func TestResilientPushHealthyNetwork(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	rep, err := PushRecoveryResilient(AgentAddrs(fx.agents), fx.inst.Flows, fx.inst, fx.sol, PushOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demoted) != 0 {
		t.Fatalf("healthy push: demoted=%v", rep.Demoted)
	}
	if rep.FlowModsAcked == 0 {
		t.Fatal("nothing acked")
	}
	for _, out := range rep.Outcomes {
		if fx.sol.SwitchController[out.Index] < 0 {
			if out.Status != PushLegacyPlanned {
				t.Fatalf("switch %d: status %v, want legacy-planned", out.Switch, out.Status)
			}
			continue
		}
		if out.Status != PushApplied || out.Attempts != 1 || out.Dirty || out.Elapsed <= 0 {
			t.Fatalf("switch %d: %+v", out.Switch, out)
		}
	}
	checkTablesMatch(t, fx, rep)
	// Mastership was negotiated on every pushed switch.
	for i, swID := range fx.inst.Switches {
		if fx.sol.SwitchController[i] < 0 {
			continue
		}
		if fx.agents[swID].Role() != openflow.RoleMaster {
			t.Fatalf("agent %d role = %v", swID, fx.agents[swID].Role())
		}
	}
}

func indexOf(t *testing.T, fx *pushFixture, swID topo.NodeID) int {
	t.Helper()
	for i, id := range fx.inst.Switches {
		if id == swID {
			return i
		}
	}
	t.Fatalf("switch %d not in instance", swID)
	return -1
}

func TestResilientPushSurvivesChaos(t *testing.T) {
	// Injected resets, dial failures, and latency on every control channel:
	// bounded fault budgets guarantee the retry loops eventually win, and the
	// end state must still match the plan exactly. The first four dials fail
	// for certain, so retries happen whatever the seeded reset schedule does
	// with the handful of writes a push now makes.
	fx := newPushFixture(t, []int{3, 4})
	dialer := chaos.NewDialer(chaos.Config{
		Seed:         7,
		Latency:      time.Millisecond,
		Jitter:       2 * time.Millisecond,
		ResetProb:    0.15,
		MaxResets:    6,
		DialFailProb: 1,
		MaxDialFails: 4,
	})
	dial := func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		tr, err := dialer.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		c := openflow.NewConn(tr)
		c.SetIOTimeout(timeout)
		if err := c.Handshake(); err != nil {
			_ = tr.Close()
			return nil, err
		}
		c.SetIOTimeout(0)
		return c, nil
	}
	rep, err := PushRecoveryResilient(AgentAddrs(fx.agents), fx.inst.Flows, fx.inst, fx.sol, PushOptions{
		Seed:        7,
		Dial:        dial,
		MaxAttempts: 20,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		DialTimeout: 2 * time.Second,
		IOTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demoted) != 0 {
		t.Fatalf("bounded chaos demoted %v", rep.Demoted)
	}
	retried := false
	for _, out := range rep.Outcomes {
		if out.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("chaos injected no retries; faults not exercised")
	}
	checkTablesMatch(t, fx, rep)
}

// muteBarrierAgent accepts control channels and answers everything except
// BarrierRequest, which it swallows — the slow/hung-peer case where flow-mods
// land but their confirmation never comes.
func muteBarrierAgent(t *testing.T) string {
	t.Helper()
	srv, err := openflow.Serve("127.0.0.1:0", func(conn *openflow.Conn) {
		for {
			msg, h, err := conn.Recv()
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case openflow.Echo:
				if !m.Reply {
					err = conn.SendXID(openflow.Echo{Reply: true, Data: m.Data}, h.XID)
				}
			case openflow.RoleRequest:
				err = conn.SendXID(openflow.RoleReply{Role: m.Role, GenerationID: m.GenerationID}, h.XID)
			case openflow.BarrierRequest:
				// swallowed: the controller's barrier times out
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

func TestResilientPushBarrierTimeoutDemotesDirty(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	var victim topo.NodeID = -1
	for i, swID := range fx.inst.Switches {
		if fx.sol.SwitchController[i] >= 0 && fx.inst.Problem.EligiblePairCount(i) > 0 {
			victim = swID
			break
		}
	}
	if victim < 0 {
		t.Fatal("no mapped switch with pairs")
	}
	addrs := AgentAddrs(fx.agents)
	addrs[victim] = muteBarrierAgent(t)

	rep, err := PushRecoveryResilient(addrs, fx.inst.Flows, fx.inst, fx.sol, PushOptions{
		Seed:        3,
		MaxAttempts: 2,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		IOTimeout:   150 * time.Millisecond,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demoted) != 1 || rep.Demoted[0] != victim {
		t.Fatalf("demoted = %v, want [%d]", rep.Demoted, victim)
	}
	out := rep.Outcomes[indexOf(t, fx, victim)]
	if out.Status != PushDemoted || out.Attempts != 2 {
		t.Fatalf("victim outcome = %+v", out)
	}
	if !out.Dirty {
		t.Fatal("flow-mods were sent without confirmation; outcome must be dirty")
	}
	checkTablesMatch(t, fx, rep)
}

func TestResilientPushStaleGenerationResync(t *testing.T) {
	fx := newPushFixture(t, []int{3})
	// A previous epoch claimed every agent with a high generation; the
	// driver starts below it, gets refused, resynchronizes, and succeeds.
	for _, a := range fx.agents {
		conn, err := openflow.DialTimeout(a.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 50}); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	rep, err := PushRecoveryResilient(AgentAddrs(fx.agents), fx.inst.Flows, fx.inst, fx.sol, PushOptions{
		Seed:         5,
		GenerationID: 2, // stale relative to 50
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demoted) != 0 {
		t.Fatalf("stale generation demoted %v", rep.Demoted)
	}
	for _, out := range rep.Outcomes {
		if out.Status == PushApplied && out.Attempts > 2 {
			t.Fatalf("switch %d needed %d attempts for a stale-gen resync", out.Switch, out.Attempts)
		}
	}
	checkTablesMatch(t, fx, rep)
}

func TestAgentRejectsStaleGeneration(t *testing.T) {
	n := network(t)
	agent, err := ServeSwitch(n.Switches[13], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	conn, err := openflow.DialTimeout(agent.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Claim with generation 5: accepted.
	if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 5}); err != nil {
		t.Fatal(err)
	}
	if gen, ok := agent.GenerationID(); !ok || gen != 5 {
		t.Fatalf("generation = %d, %v", gen, ok)
	}

	// A stale claim (gen 3) is refused with the current generation, and the
	// role survives.
	_, _, err = conn.Request(openflow.RoleRequest{Role: openflow.RoleSlave, GenerationID: 3})
	var re *openflow.RemoteError
	if !errors.As(err, &re) || re.Code != openflow.ErrCodeRoleStale {
		t.Fatalf("stale claim error = %v", err)
	}
	if g, ok := re.StaleGeneration(); !ok || g != 5 {
		t.Fatalf("stale error generation = %d, %v", g, ok)
	}
	if agent.Role() != openflow.RoleMaster {
		t.Fatalf("role after stale claim = %v", agent.Role())
	}

	// Equal generation is not stale; a newer one advances the record.
	if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleSlave, GenerationID: 6}); err != nil {
		t.Fatal(err)
	}
	if agent.Role() != openflow.RoleSlave {
		t.Fatalf("role = %v, want slave", agent.Role())
	}
	// Equal-role requests carry no generation semantics.
	if _, _, err := conn.Request(openflow.RoleRequest{Role: openflow.RoleEqual, GenerationID: 1}); err != nil {
		t.Fatal(err)
	}
	if gen, _ := agent.GenerationID(); gen != 6 {
		t.Fatalf("generation after equal-role request = %d", gen)
	}
}
