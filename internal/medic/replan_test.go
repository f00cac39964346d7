package medic

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// These tests run the pass's in-pass re-plan on real loopback agents: a push
// that demotes a switch is followed, in the same pass, by a residual re-plan
// around every switch known unreachable and a push of that plan, which also
// clears the switches the first push configured and the re-plan unmapped.

// wireCase is one recovery over a fresh network whose offline switches each
// have an agent, except missing: want is the residual PM re-plan around it.
type wireCase struct {
	inst         *scenario.Instance
	want         *core.Solution
	missing      topo.NodeID
	agents       map[topo.NodeID]*sdnsim.Agent
	addrs        map[topo.NodeID]string
	mappedBefore []int // the switches a fresh PM solve maps, missing aside
}

func newWireCase(t testing.TB, ctx *scenario.Context, failed []int, missing topo.NodeID) *wireCase {
	t.Helper()
	inst, err := ctx.Build(failed)
	if err != nil {
		t.Fatal(err)
	}
	c := &wireCase{inst: inst, missing: missing, agents: make(map[topo.NodeID]*sdnsim.Agent)}
	first, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if c.want, err = inst.SolveResidual(map[topo.NodeID]bool{missing: true}, core.PM); err != nil {
		t.Fatal(err)
	}
	network, err := sdnsim.New(ctx.Dep, ctx.Flows)
	if err != nil {
		t.Fatal(err)
	}
	for i, sw := range inst.Switches {
		if first.SwitchController[i] >= 0 && sw != missing {
			c.mappedBefore = append(c.mappedBefore, i)
		}
		if sw == missing {
			continue
		}
		a, err := sdnsim.ServeSwitch(network.Switches[sw], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.agents[sw] = a
	}
	c.addrs = sdnsim.AgentAddrs(c.agents)
	return c
}

// run drives one pass of a fresh medic over the case, dialling through dial
// (nil: plain TCP), and leaves no agent or session open.
func (c *wireCase) run(t testing.TB, dial sdnsim.DialFunc) Status {
	t.Helper()
	defer func() {
		for _, a := range c.agents {
			_ = a.Close()
		}
	}()
	m, err := New(Config{
		Dep:   c.inst.Dep,
		Flows: c.inst.Flows,
		Addrs: c.addrs,
		Push:  sdnsim.PushOptions{Seed: 1, Dial: dial},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	return drive(m, monitor.Event{Seq: 1, Failed: c.inst.Failed})
}

// check holds the pass to the re-plan's contract: the missing switch is
// unreachable after two pushes, the adopted mapping is the residual re-plan,
// every switch it maps holds exactly its active pairs, and a switch the first
// push configured that the re-plan unmapped holds no entry for any of its
// pairs. It returns those cleared switches.
func (c *wireCase) check(t testing.TB, st Status) (cleared []topo.NodeID) {
	t.Helper()
	p := c.inst.Problem
	name := fmt.Sprintf("%s without switch %d", c.inst.Label(), c.missing)
	if !st.Converged || st.PushRounds != 2 || !slices.Equal(st.Unreachable, []topo.NodeID{c.missing}) {
		t.Fatalf("%s: converged=%v after %d push rounds, unreachable %v; want converged after 2, [%d]",
			name, st.Converged, st.PushRounds, st.Unreachable, c.missing)
	}
	for i, sw := range c.inst.Switches {
		want := MappingEntry{Switch: sw, Controller: -1}
		if j := c.want.SwitchController[i]; j >= 0 {
			want.Controller = c.inst.Active[j]
		}
		if st.Mapping[i] != want {
			t.Fatalf("%s: adopted %+v, the residual re-plan maps %+v", name, st.Mapping[i], want)
		}
	}
	for _, i := range c.mappedBefore {
		if c.want.SwitchController[i] < 0 {
			cleared = append(cleared, c.inst.Switches[i])
		}
	}
	for k, pr := range p.Pairs {
		sw := c.inst.Switches[pr.Switch]
		mapped := c.want.SwitchController[pr.Switch] >= 0
		if !mapped && !slices.Contains(cleared, sw) {
			continue // never configured: the legacy table is left alone
		}
		lid := c.inst.FlowIDs[pr.Flow]
		if _, has := c.agents[sw].Entry(lid); has != (mapped && c.want.Active[k]) {
			t.Fatalf("%s: switch %d (mapped %v) holds an entry for flow %d: %v", name, sw, mapped, lid, has)
		}
	}
	return cleared
}

// TestMissingAgentDemotesAndReplans: under {3} the first switch the plan maps
// has no agent. The pass's first push demotes it, and the second pushes the
// residual re-plan around it.
func TestMissingAgentDemotesAndReplans(t *testing.T) {
	dep, flows := testFixture(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ctx.Build([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	victim := inst.Switches[slices.IndexFunc(sol.SwitchController, func(j int) bool { return j >= 0 })]
	c := newWireCase(t, ctx, []int{3}, victim)
	st := c.run(t, nil)
	c.check(t, st)
	if !hasLogKind(st, KindPlan, "residual re-plan") || !hasLogKind(st, KindPush, "1 demoted") {
		t.Fatalf("no demotion and residual re-plan logged: %+v", st.Events)
	}
	if st.TotalProg == 0 || st.RecoveredFlows == 0 {
		t.Fatalf("the re-plan recovered nothing: %+v", st.Outcome)
	}
}

// recordingConn logs every write a driver makes on a control channel.
type recordingConn struct {
	net.Conn
	mu     *sync.Mutex
	writes *[][]byte
}

func (c recordingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	*c.writes = append(*c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestReplanCleansUnmappedSwitches drives a re-plan that unmaps switches the
// first push configured (under {1,2,4} with switch 1's agent missing, the
// residual PM drops switches 0 and 6): none of their first-push entries may
// survive in their agents' tables, and two same-seed runs must send each of
// them the identical cleanup batch.
func TestReplanCleansUnmappedSwitches(t *testing.T) {
	dep, flows := testFixture(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[topo.NodeID][]byte {
		c := newWireCase(t, ctx, []int{1, 2, 4}, 1)
		var mu sync.Mutex
		writes := make(map[string]*[][]byte)
		dial := func(addr string, timeout time.Duration) (*openflow.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			if writes[addr] == nil {
				writes[addr] = new([][]byte)
			}
			log := writes[addr]
			mu.Unlock()
			conn := openflow.NewConn(recordingConn{Conn: nc, mu: &mu, writes: log})
			conn.SetIOTimeout(timeout)
			if err := conn.Handshake(); err != nil {
				_ = nc.Close()
				return nil, err
			}
			conn.SetIOTimeout(0)
			return conn, nil
		}
		cleared := c.check(t, c.run(t, dial))
		if len(cleared) < 2 {
			t.Fatalf("the re-plan unmapped %v of the configured switches, want at least 2", cleared)
		}
		batches := make(map[topo.NodeID][]byte)
		for _, sw := range cleared {
			log := *writes[c.addrs[sw]]
			batches[sw] = log[len(log)-1]
		}
		return batches
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Fatal("two same-seed runs sent different cleanup batches")
	}
}

// TestReplanMatchesResidualPM: for every ATT failure set of depth 1–3, and
// each switch its plan maps in turn without an agent, one pass adopts exactly
// the residual PM plan around that switch, every switch it maps holds exactly
// its active pairs, and every switch configured and then unmapped holds none.
func TestReplanMatchesResidualPM(t *testing.T) {
	dep, flows := testFixture(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	depth := 3
	if testing.Short() {
		depth = 2
	}
	cases, cleanups := 0, 0
	var sets func(from int, set []int)
	sets = func(from int, set []int) {
		if len(set) > 0 {
			inst, err := ctx.Build(set)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := core.PM(inst.Problem)
			if err != nil {
				t.Fatal(err)
			}
			for i, sw := range inst.Switches {
				if sol.SwitchController[i] < 0 {
					continue
				}
				c := newWireCase(t, ctx, set, sw)
				cleanups += len(c.check(t, c.run(t, nil)))
				cases++
			}
		}
		if len(set) == depth {
			return
		}
		for j := from; j < len(dep.Controllers); j++ {
			sets(j+1, append(slices.Clip(set), j))
		}
	}
	sets(0, nil)
	t.Logf("%d cases, %d switches cleared", cases, cleanups)
	if cases == 0 || (!testing.Short() && cleanups == 0) {
		t.Fatalf("%d cases, %d switches cleared: the sweep exercises nothing", cases, cleanups)
	}
}

// TestDeadSwitchIsNotDialledAgain replays a successive failure on the real
// stack. Pass {3} finds switch 10's agent gone: 10 is demoted and the pass
// re-plans around it. Pass {3,4} then finds switch 9's agent gone: its
// re-plan must avoid 9 and 10 both — switch 10 is not dialled once in that
// pass — and must go through Config.Solve like every other plan.
func TestDeadSwitchIsNotDialledAgain(t *testing.T) {
	s := newLiveStack(t, 11)
	solves := 0
	attempts := make(map[topo.NodeID]int)
	m, err := New(Config{
		Dep:   s.dep,
		Flows: s.flows,
		Addrs: s.addrs,
		Net:   s.net,
		Push:  sdnsim.PushOptions{Seed: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		Solve: func(p *core.Problem) (*core.Solution, error) {
			solves++
			return core.PM(p)
		},
		Pusher: func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
			sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
			rep, err := sdnsim.PushRecoveryResilient(addrs, flows, inst, sol, opts)
			if err == nil {
				for _, out := range rep.Outcomes {
					attempts[out.Switch] += out.Attempts
				}
			}
			return rep, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	fail := func(seq uint64, j int, dead topo.NodeID) Status {
		t.Helper()
		if err := s.agents[dead].Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.net.StopController(j); err != nil {
			t.Fatal(err)
		}
		clear(attempts)
		solves = 0
		return drive(m, monitor.Event{Seq: seq, Failed: []int{j}})
	}

	st := fail(1, 3, 10)
	if attempts[10] == 0 {
		t.Fatal("the {3} plan does not map switch 10; the test no longer demotes it")
	}
	if !st.Converged || st.PushRounds != 2 || !slices.Equal(st.Unreachable, []topo.NodeID{10}) {
		t.Fatalf("pass {3}: converged=%v, %d push rounds, unreachable %v; want converged, 2, [10]",
			st.Converged, st.PushRounds, st.Unreachable)
	}

	st = fail(2, 4, 9)
	if attempts[9] == 0 {
		t.Fatal("the {3,4} plan does not map switch 9; the test no longer demotes it")
	}
	if attempts[10] != 0 {
		t.Fatalf("pass {3,4} dialled switch 10, known dead since pass {3}, %d time(s)", attempts[10])
	}
	if !st.Converged || st.PushRounds != 2 || !slices.Equal(st.Unreachable, []topo.NodeID{9, 10}) {
		t.Fatalf("pass {3,4}: converged=%v, %d push rounds, unreachable %v; want converged, 2, [9 10]",
			st.Converged, st.PushRounds, st.Unreachable)
	}
	if solves != 2 {
		t.Fatalf("pass {3,4} called Config.Solve %d time(s), want 2: the plan and the re-plan", solves)
	}
	for _, e := range st.Mapping {
		if (e.Switch == 9 || e.Switch == 10) && e.Controller >= 0 {
			t.Fatalf("the adopted mapping hands dead switch %d to controller %d", e.Switch, e.Controller)
		}
	}
}
