package medic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pmedic/internal/election"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// liveStack is one simulated network with an openflow agent per switch and
// an echo liveness endpoint per controller — the shared substrate every
// daemon replica in the soak test operates on.
type liveStack struct {
	dep    *topo.Deployment
	flows  *flow.Set
	net    *sdnsim.Network
	agents map[topo.NodeID]*sdnsim.Agent
	addrs  map[topo.NodeID]string
	echos  []*openflow.EchoServer
	detCfg monitor.Config
}

func newLiveStack(t *testing.T, seed int64) *liveStack {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sdnsim.New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	s := &liveStack{dep: dep, flows: flows, net: net}
	s.agents = make(map[topo.NodeID]*sdnsim.Agent, len(net.Switches))
	for _, sw := range net.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.agents[sw.ID] = a
		t.Cleanup(func() { _ = a.Close() })
	}
	s.addrs = sdnsim.AgentAddrs(s.agents)
	s.echos = make([]*openflow.EchoServer, len(net.Controllers))
	for j := range net.Controllers {
		es, err := openflow.ServeEcho("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.echos[j] = es
		t.Cleanup(func() { _ = es.Close() })
	}
	net.OnControllerChange = func(j int, alive bool) { s.echos[j].SetAlive(alive) }
	s.detCfg = monitor.Config{
		Interval:  10 * time.Millisecond,
		Jitter:    3 * time.Millisecond,
		Timeout:   250 * time.Millisecond,
		Threshold: 3,
		Debounce:  40 * time.Millisecond,
		Seed:      seed,
	}
	return s
}

func (s *liveStack) targets() []monitor.Target {
	out := make([]monitor.Target, len(s.net.Controllers))
	for j := range s.net.Controllers {
		out[j] = monitor.Target{ID: j, Name: fmt.Sprintf("c%d", j), Addr: s.echos[j].Addr()}
	}
	return out
}

// replica is one pmedicd instance in the soak test: an elector plus, once
// promoted, the full store+medic+monitor pipeline over the shared stack.
type replica struct {
	id  string
	el  *election.Elector
	st  *store.Store
	mon *monitor.Monitor
	m   *Medic
}

// promote runs the leader takeover sequence a freshly elected replica
// performs — the same sequence cmd/pmedicd runs in its OnElected hook:
// open the shared store under the lease guard, replay it into a medic
// (epoch bump included), fence the agents at the new epoch's generation
// floor (over channels the medic keeps as its standby sessions), hand the
// restored failure set to a fresh detector, and start the reconcile loop.
func (r *replica) promote(t *testing.T, s *liveStack, dir string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true, Guard: r.el.Check})
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
	m, err := New(Config{
		Dep:       s.dep,
		Flows:     s.flows,
		Addrs:     s.addrs,
		Net:       s.net,
		Push:      sdnsim.PushOptions{Seed: 5},
		Store:     st,
		ReplicaID: r.id,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	m.SetRole("leader", r.el.Term())
	if gen, fenced, err := m.Fence(); err != nil || (gen > 0 && fenced != len(s.addrs)) {
		t.Fatalf("fencing sweep at generation %d: %d of %d fenced, %v", gen, fenced, len(s.addrs), err)
	}
	r.mon = monitor.New(s.targets(), s.detCfg)
	r.mon.MarkDown(m.Status().Failed...)
	r.mon.Start()
	m.Start(r.mon.Events())
}

// kill tears the replica down the SIGKILL way: no lease resignation, no
// WAL flush, no checkpoint — the lease must expire on its own and the
// state directory holds only what Append already made durable.
func (r *replica) kill() {
	if r.mon != nil {
		r.mon.Stop()
	}
	if r.m != nil {
		r.m.Stop()
	}
	if r.st != nil {
		_ = r.st.Close()
	}
	r.el.Stop()
}

// TestDaemonKillLeaderSoak is the crash-safety acceptance test: two
// replicas share a state directory, the leader is killed mid-recovery
// (failure detected and journaled, episode not finished), and the
// successor must take the lease, resume from snapshot+WAL at a strictly
// greater epoch, fence the dead leader's generations off the wire, and
// drive the network to exactly the mapping a never-killed daemon reaches.
func TestDaemonKillLeaderSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon soak test skipped in -short mode")
	}

	s := newLiveStack(t, 7)
	dir := t.TempDir()
	leaseCfg := func(id string, seed int64) election.Config {
		return election.Config{
			Dir:  dir,
			ID:   id,
			TTL:  300 * time.Millisecond,
			Seed: seed,
		}
	}

	elA, err := election.New(leaseCfg("replica-a", 1))
	if err != nil {
		t.Fatal(err)
	}
	a := &replica{id: "replica-a", el: elA}
	a.el.Start()
	waitUntil(t, "replica-a elected", 5*time.Second, leading(a.el))

	// Open A's store at the shared dir (stateDir() needs it set first).
	stA, err := store.Open(dir, store.Options{NoSync: true, Guard: a.el.Check})
	if err != nil {
		t.Fatal(err)
	}
	a.st = stA
	a.promoteOver(t, s, stA)

	// A second replica campaigns but stays follower while A's lease is live.
	elB, err := election.New(leaseCfg("replica-b", 2))
	if err != nil {
		t.Fatal(err)
	}
	b := &replica{id: "replica-b", el: elB}
	b.el.Start()
	defer b.kill()

	// Phase 1 — controller 3 dies; wait only until A has detected and
	// journaled the failure (epoch >= 1), NOT until the episode is over:
	// the kill lands mid-recovery.
	if err := s.net.StopController(3); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, a.m, func(st Status) bool { return st.Epoch >= 1 })
	aStatus := a.m.Status()
	aEpoch := aStatus.Epoch
	aPushGen := aEpoch*genStride + 1 // the generation A's in-flight pushes carry

	// Phase 2 — SIGKILL the leader. The lease is not resigned; B must wait
	// out the TTL and win the next campaign.
	a.kill()
	if b.el.Check() == nil {
		t.Fatal("follower claims leadership while the dead leader's lease is live")
	}
	waitUntil(t, "replica-b elected after lease expiry", 5*time.Second, leading(b.el))
	if b.el.Term() <= a.el.Term() {
		t.Fatalf("successor term %d not past predecessor term %d", b.el.Term(), a.el.Term())
	}

	// Phase 3 — a second controller dies while nobody is reconciling, then
	// the successor promotes over the shared directory.
	if err := s.net.StopController(4); err != nil {
		t.Fatal(err)
	}
	b.promote(t, s, dir)

	resumed := b.m.Status()
	if resumed.Epoch <= aEpoch {
		t.Fatalf("successor resumed at epoch %d, want strictly greater than predecessor's %d",
			resumed.Epoch, aEpoch)
	}
	if len(resumed.Failed) != 1 || resumed.Failed[0] != 3 {
		t.Fatalf("successor restored Failed = %v, want [3] from the dead leader's WAL", resumed.Failed)
	}
	if !hasLogKind(resumed, KindResume, "") {
		t.Fatalf("no resume marker in the successor's log: %+v", resumed.Events)
	}

	// Phase 4 — the dead leader's in-flight generation is fenced on the
	// wire: asserting mastership at it must be refused by every agent.
	fenced, _, err := sdnsim.FenceAgents(s.addrs, aPushGen, sdnsim.PushOptions{})
	if fenced != 0 || !errors.Is(err, sdnsim.ErrFenced) {
		t.Fatalf("dead leader's generation %d not fenced: fenced=%d err=%v", aPushGen, fenced, err)
	}

	// Phase 5 — the successor finishes the episode on its own: its detector
	// finds controller 4 down (3 was handed off via MarkDown, so it is not
	// re-announced) and reconciles the combined failure set.
	final := waitStatus(t, b.m, func(st Status) bool {
		return st.Converged && len(st.Failed) == 2
	})
	if final.Failed[0] != 3 || final.Failed[1] != 4 {
		t.Fatalf("final Failed = %v, want [3 4]", final.Failed)
	}
	for _, d := range b.mon.State() {
		if d.ID == 3 && d.Failures != 0 {
			t.Fatalf("handed-off controller 3 re-announced: %+v", d)
		}
	}
	for sw, j := range final.NetworkMapping {
		if j == 3 || j == 4 {
			t.Fatalf("switch %d still owned by dead controller %d after failover", sw, j)
		}
	}

	// Phase 6 — the reference run: a never-killed daemon on an identical
	// network, fed the same failure sequence, must land on the identical
	// mapping (the solver is deterministic, so any divergence means the
	// failover lost or invented state).
	ref := newLiveStack(t, 7)
	refMedic, err := New(Config{
		Dep:   ref.dep,
		Flows: ref.flows,
		Addrs: ref.addrs,
		Net:   ref.net,
		Push:  sdnsim.PushOptions{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	refEvents := make(chan monitor.Event, 4)
	refMedic.Start(refEvents)
	defer refMedic.Stop()
	refEvents <- monitor.Event{Seq: 1, Failed: []int{3}, At: time.Now()}
	waitStatus(t, refMedic, func(st Status) bool { return st.Converged && st.Epoch == 1 })
	refEvents <- monitor.Event{Seq: 2, Failed: []int{4}, At: time.Now()}
	refFinal := waitStatus(t, refMedic, func(st Status) bool { return st.Converged && st.Epoch == 2 })

	mustJSONEqual(t, "post-failover mapping vs never-killed daemon", final.Mapping, refFinal.Mapping)
	mustJSONEqual(t, "post-failover flow programmability vs never-killed daemon", final.FlowProg, refFinal.FlowProg)
	if final.MinProg != refFinal.MinProg || final.TotalProg != refFinal.TotalProg {
		t.Fatalf("plan metrics diverged: failover r=%d total=%d, reference r=%d total=%d",
			final.MinProg, final.TotalProg, refFinal.MinProg, refFinal.TotalProg)
	}
}

// promoteOver is promote with an already-open store (the first boot, where
// the state directory is empty and FenceGen is still zero).
func (r *replica) promoteOver(t *testing.T, s *liveStack, st *store.Store) {
	t.Helper()
	m, err := New(Config{
		Dep:       s.dep,
		Flows:     s.flows,
		Addrs:     s.addrs,
		Net:       s.net,
		Push:      sdnsim.PushOptions{Seed: 5},
		Store:     st,
		ReplicaID: r.id,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	m.SetRole("leader", r.el.Term())
	r.mon = monitor.New(s.targets(), s.detCfg)
	r.mon.Start()
	m.Start(r.mon.Events())
}

// waitUntil polls cond until it holds: at intervals that start at 50µs, so a
// condition the daemon meets at once costs next to nothing, and double up to
// 10ms. waitStatus and the soak's waits all come through here.
func waitUntil(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for every := 50 * time.Microsecond; !cond(); every = min(2*every, 10*time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v", what, within)
		}
		time.Sleep(every)
	}
}

// leading reports whether el holds an unexpired lease, for waitUntil.
func leading(el *election.Elector) func() bool {
	return func() bool { return el.Check() == nil }
}
