package sdnsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func network(t *testing.T) *Network {
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
	return n
}

func TestSteadyStateFollowsFlowTables(t *testing.T) {
	n := network(t)
	for l := 0; l < n.Flows.Len(); l += 37 { // sample across the workload
		id := flow.ID(l)
		tr, err := n.Inject(id)
		if err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		if !tr.Delivered {
			t.Fatalf("flow %d not delivered: %+v", id, tr)
		}
		f := &n.Flows.Flows[id]
		if len(tr.Path) != len(f.Path) {
			t.Fatalf("flow %d path %v, want %v", id, tr.Path, f.Path)
		}
		for i := range tr.Path {
			if tr.Path[i] != f.Path[i] {
				t.Fatalf("flow %d diverged at hop %d: %v vs %v", id, i, tr.Path, f.Path)
			}
		}
		for i, v := range tr.Verdicts[:len(tr.Verdicts)-1] {
			if v != VerdictFlowTable {
				t.Fatalf("flow %d hop %d verdict %v, want flow-table", id, i, v)
			}
		}
	}
}

func TestLegacyFallthroughAfterEntryRemoval(t *testing.T) {
	n := network(t)
	id := flow.ID(0)
	f := &n.Flows.Flows[id]
	// Remove the entry at the source: the hybrid pipeline must fall through
	// to OSPF and still deliver.
	n.Switches[f.Src].RemoveEntry(id)
	tr, err := n.Inject(id)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Delivered {
		t.Fatalf("hybrid fallthrough failed: %+v", tr)
	}
	if tr.Verdicts[0] != VerdictLegacy {
		t.Fatalf("first hop verdict %v, want legacy", tr.Verdicts[0])
	}
	// The removal is per flow: another flow crossing the same switch keeps
	// its entry and still matches the flow table there.
	var other flow.ID = -1
	for l := range n.Flows.Flows {
		g := &n.Flows.Flows[l]
		if g.ID != id && g.Dst != f.Src && slices.Contains(g.Path, f.Src) {
			other = g.ID
			break
		}
	}
	if other < 0 {
		t.Fatalf("no other flow crosses switch %d", f.Src)
	}
	tr, err = n.Inject(other)
	if err != nil || !tr.Delivered {
		t.Fatalf("flow %d through switch %d: %v %+v", other, f.Src, err, tr)
	}
	if at := slices.Index(tr.Path, f.Src); tr.Verdicts[at] != VerdictFlowTable {
		t.Fatalf("flow %d at switch %d: verdict %v after flow %d's entry was removed, want flow-table", other, f.Src, tr.Verdicts[at], id)
	}
}

func TestFailureFreezesProgrammabilityButNotForwarding(t *testing.T) {
	n := network(t)
	// Fail the hub domain controller (C4, index 3).
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	offline := n.OfflineSwitches()
	if len(offline) != len(n.Dep.Controllers[3].Domain) {
		t.Fatalf("offline = %v", offline)
	}
	// A flow crossing the hub still forwards (data plane survives) ...
	var crossing flow.ID = -1
	for l := range n.Flows.Flows {
		f := &n.Flows.Flows[l]
		if f.Src != 13 && f.Dst != 13 && slices.Contains(f.Path, 13) {
			crossing = f.ID
			break
		}
	}
	if crossing < 0 {
		t.Fatal("no flow crosses the hub")
	}
	tr, err := n.Inject(crossing)
	if err != nil || !tr.Delivered {
		t.Fatalf("crossing flow not delivered after failure: %v %+v", err, tr)
	}
	// ... but cannot be rerouted at the offline hub.
	if n.ProgrammableAt(crossing, 13) {
		t.Fatal("offline switch reported programmable")
	}
	err = n.Reroute(crossing, 13, n.Dep.Graph.Neighbors(13)[0])
	if !errors.Is(err, ErrUnmanaged) {
		t.Fatalf("reroute error = %v, want ErrUnmanaged", err)
	}
}

func TestRerouteChangesForwarding(t *testing.T) {
	n := network(t)
	// Find a flow and an on-path switch with an alternative next hop.
	for l := range n.Flows.Flows {
		f := &n.Flows.Flows[l]
		for _, at := range f.Path[:len(f.Path)-1] {
			if !n.ProgrammableAt(f.ID, at) {
				continue
			}
			entry, _ := n.Switches[at].Entry(f.ID)
			var alt topo.NodeID = -1
			for _, v := range n.Dep.Graph.Neighbors(at) {
				if v != entry.NextHop && n.reaches(v, f.Dst, at) {
					alt = v
					break
				}
			}
			if alt < 0 {
				continue
			}
			if err := n.Reroute(f.ID, at, alt); err != nil {
				t.Fatalf("Reroute: %v", err)
			}
			e, _ := n.Switches[at].Entry(f.ID)
			if e.NextHop != alt {
				t.Fatalf("entry after reroute = %+v, want next hop %d", e, alt)
			}
			// A packet of the flow now leaves the switch through the new hop.
			tr, _ := n.Inject(f.ID)
			if i := slices.Index(tr.Path, at); i < 0 || i+1 >= len(tr.Path) || tr.Verdicts[i] != VerdictFlowTable || tr.Path[i+1] != alt {
				t.Fatalf("flow %d rerouted at %d via %d, packet took %v (%v)", f.ID, at, alt, tr.Path, tr.Verdicts)
			}
			return
		}
	}
	t.Fatal("no programmable (flow, switch) found in steady state")
}

// pendantNetwork is the path 0–1–2 with a pendant node 3 on 1, one
// controller managing all four, and flow 0→2 routed 0–1–2.
func pendantNetwork(t *testing.T) (*Network, flow.ID) {
	t.Helper()
	g := &topo.Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode(fmt.Sprint(i), float64(i), float64(i))
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {1, 2}, {1, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	dep := &topo.Deployment{Graph: g, Controllers: []topo.Controller{
		{Site: 1, Domain: []topo.NodeID{0, 1, 2, 3}, Capacity: topo.DefaultControllerCapacity},
	}}
	flows, err := flow.Generate(g, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows.Flows {
		if f.Src == 0 && f.Dst == 2 {
			return n, f.ID
		}
	}
	t.Fatal("no flow 0→2")
	return nil, 0
}

// TestRerouteRejectsLoop: rerouting flow 0→2 at 1 toward the pendant 3,
// which reaches 2 only back through 1, is refused and leaves the entry.
func TestRerouteRejectsLoop(t *testing.T) {
	n, id := pendantNetwork(t)
	if err := n.Reroute(id, 1, 3); !errors.Is(err, ErrNoAlternatePath) {
		t.Fatalf("reroute into the pendant: %v, want ErrNoAlternatePath", err)
	}
	if e, _ := n.Switches[1].Entry(id); e.NextHop != 2 {
		t.Fatalf("refused reroute changed the entry to %+v", e)
	}
}

// TestInjectRefusesNonAdjacentNextHop: an entry pointing at a switch that is
// not a neighbour stops the packet with ErrInvalidNextHop.
func TestInjectRefusesNonAdjacentNextHop(t *testing.T) {
	n, id := pendantNetwork(t)
	n.Switches[0].InstallEntry(FlowEntry{FlowID: id, NextHop: 2})
	if _, err := n.Inject(id); !errors.Is(err, ErrInvalidNextHop) {
		t.Fatalf("inject over 0→2, not a link: %v, want ErrInvalidNextHop", err)
	}
}

// TestInjectStopsAPacketLoop: two adjacent switches whose entries point at
// each other bounce the packet until the hop budget ends it.
func TestInjectStopsAPacketLoop(t *testing.T) {
	n, id := pendantNetwork(t)
	n.Switches[1].InstallEntry(FlowEntry{FlowID: id, NextHop: 0})
	tr, err := n.Inject(id)
	if !errors.Is(err, ErrPacketLoop) {
		t.Fatalf("inject through 0⇄1: %v, want ErrPacketLoop", err)
	}
	if tr.Delivered || len(tr.Path) != maxHops+1 {
		t.Fatalf("looping packet: delivered %v after %d hops, want dropped after %d", tr.Delivered, len(tr.Path), maxHops+1)
	}
}

func TestApplyRecoveryRespectsCapacity(t *testing.T) {
	n := network(t)
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(n.Dep, n.Flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	// Every offline switch on the controller with the least residual
	// capacity, every pair in SDN mode: more sessions than it has left.
	least := 0
	for jj, rest := range inst.Problem.Rest {
		if rest < inst.Problem.Rest[least] {
			least = jj
		}
	}
	over := &core.Solution{
		SwitchController: make([]int, len(inst.Switches)),
		Active:           make([]bool, len(inst.Problem.Pairs)),
	}
	for i := range over.SwitchController {
		over.SwitchController[i] = least
	}
	for k := range over.Active {
		over.Active[k] = true
	}
	before := n.MappingSnapshot()
	tables := make([][]FlowEntry, len(n.Switches))
	for v, sw := range n.Switches {
		tables[v] = slices.Clone(sw.entries)
	}
	if _, err := n.ApplyRecovery(inst, over); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("over-capacity recovery: error %v, want core.ErrInfeasible", err)
	}
	if got := n.MappingSnapshot(); !slices.Equal(got, before) {
		t.Fatalf("a refused recovery changed the network: mapping %v -> %v", before, got)
	}
	for v, sw := range n.Switches {
		if !slices.Equal(sw.entries, tables[v]) {
			t.Fatalf("a refused recovery changed switch %d's table", v)
		}
	}
	if _, err := n.ApplyRecovery(inst, sol); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRecoveryMatchesWirePush holds the in-process and the wire
// translation of a recovery to one result: after ApplyRecovery on one
// network and a resilient push over loopback agents on another, every switch
// holds the same flow table and the same master.
func TestApplyRecoveryMatchesWirePush(t *testing.T) {
	for _, failed := range [][]int{{3}, {3, 4}, {2, 3, 4}} {
		for _, alg := range []struct {
			name  string
			solve func(*core.Problem) (*core.Solution, error)
		}{{"PM", core.PM}, {"RetroFlow", core.RetroFlow}} {
			t.Run(fmt.Sprintf("%s%v", alg.name, failed), func(t *testing.T) {
				local, wire := network(t), network(t)
				for _, j := range failed {
					if err := local.StopController(j); err != nil {
						t.Fatal(err)
					}
					if err := wire.StopController(j); err != nil {
						t.Fatal(err)
					}
				}
				inst, err := scenario.Build(local.Dep, local.Flows, failed)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := alg.solve(inst.Problem)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := local.ApplyRecovery(inst, sol); err != nil {
					t.Fatal(err)
				}

				agents := make(map[topo.NodeID]*Agent, len(inst.Switches))
				for _, swID := range inst.Switches {
					a, err := ServeSwitch(wire.Switches[swID], "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					agents[swID] = a
				}
				rep, err := PushRecoveryResilient(AgentAddrs(agents), wire.Flows, inst, sol, PushOptions{Seed: 1})
				for _, a := range agents {
					_ = a.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Demoted) != 0 {
					t.Fatalf("loopback push demoted %v", rep.Demoted)
				}
				if err := wire.AdoptMapping(inst, sol); err != nil {
					t.Fatal(err)
				}

				for v := range local.Switches {
					a, b := local.Switches[v], wire.Switches[v]
					if !slices.Equal(a.entries, b.entries) {
						t.Fatalf("switch %d: %d entries in process, %d over the wire", v, len(a.entries), len(b.entries))
					}
				}
				if a, b := local.MappingSnapshot(), wire.MappingSnapshot(); !slices.Equal(a, b) {
					t.Fatalf("mapping in process %v, over the wire %v", a, b)
				}
			})
		}
	}
}

func TestInjectUnknownFlow(t *testing.T) {
	n := network(t)
	if _, err := n.Inject(flow.ID(99999)); !errors.Is(err, ErrBadFlow) {
		t.Fatalf("error = %v", err)
	}
}

func TestStopControllerValidation(t *testing.T) {
	n := network(t)
	for _, j := range []int{-1, len(n.Controllers)} {
		if err := n.StopController(j); !errors.Is(err, ErrBadController) {
			t.Fatalf("StopController(%d) error = %v", j, err)
		}
	}
}

// TestStatsAccumulate: five injected packets make five traces, each
// delivered at its flow's destination.
func TestStatsAccumulate(t *testing.T) {
	n := network(t)
	delivered := 0
	for i := 0; i < 5; i++ {
		tr, err := n.Inject(flow.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Delivered && tr.Path[len(tr.Path)-1] == n.Flows.Flows[i].Dst {
			delivered++
		}
	}
	if delivered != 5 {
		t.Fatalf("%d of 5 injected packets delivered", delivered)
	}
}

// TestLegacyTablesPinned pins every switch's converged legacy next hop on ATT
// (625 entries) and on a seed-7 300-node synthetic (90 000) to an FNV-64a
// digest of the tables a link-state SPF computes — one LSA per router in one
// converged database, ties toward the lower-numbered parent — so the
// shortest-delay-tree tables New builds stay those of OSPF.
func TestLegacyTablesPinned(t *testing.T) {
	digest := func(tables func(v int) []topo.NodeID, nodes int) uint64 {
		h := fnv.New64a()
		var buf [4]byte
		for v := 0; v < nodes; v++ {
			table := tables(v)
			if len(table) != nodes {
				t.Fatalf("switch %d: legacy table has %d destinations, want %d", v, len(table), nodes)
			}
			for _, nh := range table {
				binary.LittleEndian.PutUint32(buf[:], uint32(int32(nh)))
				h.Write(buf[:])
			}
		}
		return h.Sum64()
	}

	n := network(t)
	if got, want := digest(func(v int) []topo.NodeID { return n.Switches[v].legacy }, len(n.Switches)), uint64(0xbf70a71adc1d2aea); got != want {
		t.Fatalf("ATT legacy tables digest %#016x, want %#016x", got, want)
	}

	dep, err := topo.SyntheticWithOpts(300, 8, 500, topo.SyntheticOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := dep.Graph
	delay, err := g.EdgeDelaysMs()
	if err != nil {
		t.Fatal(err)
	}
	tables := func(v int) []topo.NodeID {
		table, err := legacyTable(g, topo.NodeID(v), delay)
		if err != nil {
			t.Fatal(err)
		}
		return table
	}
	if got, want := digest(tables, g.NumNodes()), uint64(0x4b8c930488e87d18); got != want {
		t.Fatalf("synthetic legacy tables digest %#016x, want %#016x", got, want)
	}
}

// TestUnknownFlowOrSwitchIsNotProgrammable: an agent installs an entry for
// any flow ID a controller sends, so a table may hold a flow outside the
// workload. Such a flow, and a switch outside the network, are not
// programmable and cannot be rerouted; neither may index past the network.
func TestUnknownFlowOrSwitchIsNotProgrammable(t *testing.T) {
	n := network(t)
	f := &n.Flows.Flows[0]
	foreign := flow.ID(n.Flows.Len())
	n.Switches[f.Src].Apply(openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.Match{FlowID: uint32(foreign)}, NextHop: uint32(f.Path[1])})
	if _, ok := n.Switches[f.Src].Entry(foreign); !ok {
		t.Fatalf("switch %d holds no entry for flow %d", f.Src, foreign)
	}
	if n.ProgrammableAt(foreign, f.Src) {
		t.Fatalf("flow %d outside the workload is programmable at %d", foreign, f.Src)
	}
	if err := n.Reroute(foreign, f.Src, f.Path[1]); !errors.Is(err, ErrBadFlow) {
		t.Fatalf("Reroute of flow %d = %v, want ErrBadFlow", foreign, err)
	}
	for _, at := range []topo.NodeID{-1, topo.NodeID(len(n.Switches))} {
		if n.ProgrammableAt(f.ID, at) {
			t.Fatalf("flow %d is programmable at switch %d", f.ID, at)
		}
		if err := n.Reroute(f.ID, at, f.Path[1]); !errors.Is(err, ErrBadSwitch) {
			t.Fatalf("Reroute at switch %d = %v, want ErrBadSwitch", at, err)
		}
	}
	if !n.ProgrammableAt(f.ID, f.Src) {
		t.Fatalf("flow %d is not programmable at its source %d in steady state", f.ID, f.Src)
	}
}
