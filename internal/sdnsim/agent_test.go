package sdnsim

import (
	"errors"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func TestAgentHandlesBasicProtocol(t *testing.T) {
	n := network(t)
	sw := n.Switches[13]
	agent, err := ServeSwitch(sw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	conn, err := openflow.DialTimeout(agent.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Role.
	if _, err := conn.Send(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 9}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if agent.Role() != openflow.RoleMaster {
		t.Fatalf("role = %v", agent.Role())
	}

	// Echo.
	if _, err := conn.Send(openflow.Echo{Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	msg, _, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(openflow.Echo); !ok || !e.Reply || string(e.Data) != "hi" {
		t.Fatalf("echo = %#v", msg)
	}

	// FlowMod add + barrier.
	id := flow.ID(7)
	neighbor := n.Dep.Graph.Neighbors(13)[0]
	if _, err := conn.Send(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 200,
		Match:    openflow.Match{FlowID: uint32(id)},
		NextHop:  uint32(neighbor),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Recv(); err != nil { // barrier reply orders the flowmod
		t.Fatal(err)
	}
	e, ok := agent.Entry(id)
	if !ok || e.Priority != 200 || e.NextHop != neighbor {
		t.Fatalf("entry after wire flow-mod = %+v, %v", e, ok)
	}
	if agent.FlowModsApplied() != 1 {
		t.Fatalf("flow mods = %d", agent.FlowModsApplied())
	}
}

func TestAgentFlowDeleteAndFlush(t *testing.T) {
	n := network(t)
	sw := n.Switches[5]
	before := len(sw.entries)
	if before == 0 {
		t.Fatal("switch 5 has no steady-state entries")
	}
	agent, err := ServeSwitch(sw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	conn, err := openflow.DialTimeout(agent.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Delete one specific flow.
	var victim flow.ID = -1
	for l := range n.Flows.Flows {
		if _, ok := sw.Entry(flow.ID(l)); ok {
			victim = flow.ID(l)
			break
		}
	}
	if _, err := conn.Send(openflow.FlowMod{Command: openflow.FlowDelete, Match: openflow.Match{FlowID: uint32(victim)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, ok := agent.Entry(victim); ok {
		t.Fatal("entry survived FlowDelete")
	}

	// Flush everything.
	if _, err := conn.Send(openflow.FlowMod{Command: openflow.FlowDeleteAll}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	agent.mu.Lock()
	left := len(sw.entries)
	agent.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d entries survived FlowDeleteAll", left)
	}
}

func TestPushRecoveryOverTheWire(t *testing.T) {
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
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}

	agents := make(map[topo.NodeID]*Agent, len(inst.Switches))
	for _, swID := range inst.Switches {
		a, err := ServeSwitch(n.Switches[swID], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		agents[swID] = a
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()

	rep, err := PushRecoveryResilient(AgentAddrs(agents), flows, inst, sol, PushOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demoted) != 0 {
		t.Fatalf("demoted %v on a clean channel", rep.Demoted)
	}
	if rep.FlowModsAcked == 0 {
		t.Fatal("nothing sent")
	}
	// Wire effect must match the analytic solution: SDN pairs have entries,
	// legacy pairs do not.
	for k, pr := range inst.Problem.Pairs {
		swID := inst.Switches[pr.Switch]
		if sol.SwitchController[pr.Switch] < 0 {
			continue
		}
		lid := inst.FlowIDs[pr.Flow]
		_, has := agents[swID].Entry(lid)
		if has != sol.Active[k] {
			t.Fatalf("switch %d flow %d: entry=%v, want %v", swID, lid, has, sol.Active[k])
		}
	}
	// All touched agents negotiated mastership.
	for i, swID := range inst.Switches {
		if sol.SwitchController[i] < 0 {
			continue
		}
		if agents[swID].Role() != openflow.RoleMaster {
			t.Fatalf("agent %d role = %v", swID, agents[swID].Role())
		}
	}
}

func TestPushRecoveryMissingAgent(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := PushRecoveryResilient(nil, flows, inst, sol, PushOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	demoted := 0
	for _, out := range rep.Outcomes {
		if out.Status != PushDemoted {
			continue
		}
		demoted++
		if !errors.Is(out.Err, ErrAgentMissing) {
			t.Fatalf("switch %d: error = %v, want ErrAgentMissing", out.Switch, out.Err)
		}
	}
	if demoted == 0 || demoted != len(rep.Demoted) {
		t.Fatalf("%d demoted outcomes, report lists %v", demoted, rep.Demoted)
	}
}

// TestAgentCloseTwice: a test that kills an agent mid-run closes it again in
// its cleanup; the second Close is a no-op that returns what the first did.
func TestAgentCloseTwice(t *testing.T) {
	n := network(t)
	agent, err := ServeSwitch(n.Switches[13], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := openflow.DialTimeout(agent.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	first := agent.Close()
	if again := agent.Close(); again != first {
		t.Fatalf("second Close returned %v, the first %v", again, first)
	}
	if _, err := openflow.DialTimeout(agent.Addr(), time.Second); err == nil {
		t.Fatal("a closed agent still accepts")
	}
}
