package sdnsim

import (
	"errors"
	"fmt"
	"sync"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/graphalg"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// Controller is one control-plane instance.
type Controller struct {
	Index int
	Site  topo.NodeID
	Alive bool
}

// Stats counts simulator activity.
type Stats struct {
	PacketsInjected  int
	PacketsDelivered int
	PacketsDropped   int
	FlowModsSent     int
	Remappings       int
	LegacyFallbacks  int
}

// Network is a running SD-WAN: a topology deployment with live switches and
// controllers.
type Network struct {
	Dep   *topo.Deployment
	Flows *flow.Set

	Switches    []*Switch
	Controllers []*Controller
	Stats       Stats

	// OnControllerChange, when set, is invoked (outside the lifecycle lock)
	// after StopController or StartController flips a controller's liveness.
	// The daemon wires it to the controller's probe endpoint so the failure
	// detector observes the change. See lifecycle.go.
	OnControllerChange func(index int, alive bool)

	// ctrlMu serializes the runtime lifecycle surface (StopController,
	// StartController, AdoptMapping, MappingSnapshot). The
	// rest of Network predates concurrent use and is not safe to call
	// concurrently with anything.
	ctrlMu sync.Mutex

	delay func(a, b topo.NodeID) float64
}

// Network errors.
var (
	ErrControllerDown  = errors.New("sdnsim: controller is down")
	ErrBadController   = errors.New("sdnsim: controller index out of range")
	ErrBadFlow         = errors.New("sdnsim: unknown flow")
	ErrPacketLoop      = errors.New("sdnsim: packet exceeded the hop budget")
	ErrInvalidNextHop  = errors.New("sdnsim: next hop is not adjacent")
	ErrNoAlternatePath = errors.New("sdnsim: next hop cannot reach the destination")
)

// New builds the steady-state network: every switch runs the hybrid
// pipeline with converged legacy (OSPF) tables, every flow has SDN entries
// along its path, and every controller manages its domain.
func New(dep *topo.Deployment, flows *flow.Set) (*Network, error) {
	g := dep.Graph
	delayW, err := g.EdgeDelaysMs()
	if err != nil {
		return nil, fmt.Errorf("sdnsim: %w", err)
	}
	n := &Network{
		Dep:   dep,
		Flows: flows,
		delay: delayW,
	}
	n.Switches = make([]*Switch, g.NumNodes())
	for v := range n.Switches {
		legacy, err := legacyTable(g, topo.NodeID(v), delayW)
		if err != nil {
			return nil, fmt.Errorf("sdnsim: legacy table of %d: %w", v, err)
		}
		n.Switches[v] = NewSwitch(topo.NodeID(v), legacy)
	}
	n.Controllers = make([]*Controller, len(dep.Controllers))
	for j, c := range dep.Controllers {
		n.Controllers[j] = &Controller{Index: j, Site: c.Site, Alive: true}
		for _, sw := range c.Domain {
			n.Switches[sw].Controller = j
		}
	}
	// Install the initial SDN state: one entry per flow per on-path switch
	// (except the destination).
	for l := range flows.Flows {
		f := &flows.Flows[l]
		for i := 0; i+1 < len(f.Path); i++ {
			n.Switches[f.Path[i]].InstallEntry(FlowEntry{FlowID: f.ID, Priority: 100, NextHop: f.Path[i+1]})
		}
	}
	return n, nil
}

// legacyTable is src's converged OSPF table: toward every destination, the
// first hop on src's shortest-delay tree (ties toward the lower-numbered
// parent, as SPF breaks them), -1 for src itself and unreachable nodes.
func legacyTable(g *topo.Graph, src topo.NodeID, delay graphalg.Weight) ([]topo.NodeID, error) {
	tree, err := graphalg.Dijkstra(g, src, delay)
	if err != nil {
		return nil, err
	}
	next := make([]topo.NodeID, len(tree.Parent))
	for dst := range next {
		v := topo.NodeID(dst)
		if v == src || tree.Parent[v] < 0 {
			next[dst] = -1
			continue
		}
		for tree.Parent[v] != src {
			v = tree.Parent[v]
		}
		next[dst] = v
	}
	return next, nil
}

// Trace is the outcome of one injected packet. LatencyMs is the sum of the
// propagation delays of the links it crossed.
type Trace struct {
	Flow      flow.ID
	Path      []topo.NodeID
	Verdicts  []Verdict
	Delivered bool
	LatencyMs float64
}

// maxHops bounds a packet walk; any real path is far shorter.
const maxHops = 64

// Inject sends one packet of the flow from its source and walks it through
// switch pipelines until delivery or drop.
func (n *Network) Inject(id flow.ID) (*Trace, error) {
	if id < 0 || int(id) >= len(n.Flows.Flows) {
		return nil, fmt.Errorf("%w: %d", ErrBadFlow, id)
	}
	f := &n.Flows.Flows[id]
	n.Stats.PacketsInjected++
	tr := &Trace{Flow: id}
	at := f.Src
	for hops := 0; hops <= maxHops; hops++ {
		tr.Path = append(tr.Path, at)
		nh, verdict := n.Switches[at].Forward(id, f.Dst)
		tr.Verdicts = append(tr.Verdicts, verdict)
		switch verdict {
		case VerdictDelivered:
			tr.Delivered = true
			n.Stats.PacketsDelivered++
			return tr, nil
		case VerdictFlowTable, VerdictLegacy:
			if verdict == VerdictLegacy {
				n.Stats.LegacyFallbacks++
			}
			if !n.Dep.Graph.HasEdge(at, nh) {
				n.Stats.PacketsDropped++
				return tr, fmt.Errorf("%w: %d -> %d", ErrInvalidNextHop, at, nh)
			}
			tr.LatencyMs += n.delay(at, nh)
			at = nh
		default:
			n.Stats.PacketsDropped++
			return tr, nil
		}
	}
	n.Stats.PacketsDropped++
	return tr, fmt.Errorf("%w: flow %d", ErrPacketLoop, id)
}

// OfflineSwitches returns the currently unmanaged switches, ascending.
func (n *Network) OfflineSwitches() []topo.NodeID {
	var out []topo.NodeID
	for _, s := range n.Switches {
		if !s.Managed() {
			out = append(out, s.ID)
		}
	}
	return out
}

// Reroute changes a flow's next hop at a switch — the operational meaning of
// path programmability. It fails when the switch is unmanaged, its
// controller is dead, the flow is not SDN-routed there, or the new next hop
// cannot reach the destination without coming back through the switch.
func (n *Network) Reroute(id flow.ID, at topo.NodeID, newNextHop topo.NodeID) error {
	if id < 0 || int(id) >= len(n.Flows.Flows) {
		return fmt.Errorf("%w: %d", ErrBadFlow, id)
	}
	sw := n.Switches[at]
	if !sw.Managed() {
		return fmt.Errorf("%w: switch %d", ErrUnmanaged, at)
	}
	if !n.Controllers[sw.Controller].Alive {
		return fmt.Errorf("%w: controller %d", ErrControllerDown, sw.Controller)
	}
	if _, ok := sw.Entry(id); !ok {
		return fmt.Errorf("%w: flow %d at switch %d", ErrNoEntry, id, at)
	}
	if !n.Dep.Graph.HasEdge(at, newNextHop) {
		return fmt.Errorf("%w: %d -> %d", ErrInvalidNextHop, at, newNextHop)
	}
	f := &n.Flows.Flows[id]
	if !n.reaches(newNextHop, f.Dst, at) {
		return fmt.Errorf("%w: %d via %d", ErrNoAlternatePath, f.Dst, newNextHop)
	}
	n.Stats.FlowModsSent++
	sw.InstallEntry(FlowEntry{FlowID: id, Priority: 100, NextHop: newNextHop})
	return nil
}

// reaches reports whether dst is reachable from start without traversing
// banned (a loop-freedom check for reroutes).
func (n *Network) reaches(start, dst, banned topo.NodeID) bool {
	if start == dst {
		return true
	}
	g := n.Dep.Graph
	seen := make([]bool, g.NumNodes())
	seen[banned] = true
	stack := []topo.NodeID{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == dst {
			return true
		}
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// ApplyRecovery applies a switch-mapping recovery solution in process, as
// PushRecoveryResilient does over the wire on a healthy control channel: the
// solution is verified against the instance, every mapped switch gets the
// full assert of buildPushPlan — an add for each of its SDN-mode pairs, a
// delete for each legacy-mode one, which leaves the table the wire's
// difference leaves — and AdoptMapping records the new
// ownership. A switch the solution leaves unmapped is not touched: nobody
// manages it, so nobody can delete its entries. It returns the control
// messages the recovery costs: the flow-mods plus one mastership claim per
// mapped switch.
func (n *Network) ApplyRecovery(inst *scenario.Instance, sol *core.Solution) (int, error) {
	if err := sol.Verify(inst.Problem); err != nil {
		return 0, fmt.Errorf("sdnsim: apply: %w", err)
	}
	plan, err := buildPushPlan(n.Flows, inst, sol, nil)
	if err != nil {
		return 0, err
	}
	messages := 0
	for _, sp := range plan {
		sw := n.Switches[sp.sw]
		for _, m := range sp.mods {
			sw.Apply(m)
		}
		n.Stats.FlowModsSent += len(sp.mods)
		messages += 1 + len(sp.mods)
	}
	return messages, n.AdoptMapping(inst, sol)
}

// ProgrammableAt reports whether the flow can actually be rerouted at the
// switch right now: SDN entry present, the switch's master alive, and at
// least one alternative next hop reaching the destination.
func (n *Network) ProgrammableAt(id flow.ID, at topo.NodeID) bool {
	sw := n.Switches[at]
	if !sw.Managed() || !n.Controllers[sw.Controller].Alive {
		return false
	}
	entry, ok := sw.Entry(id)
	if !ok {
		return false
	}
	f := &n.Flows.Flows[id]
	if at == f.Dst {
		return false
	}
	for _, v := range n.Dep.Graph.Neighbors(at) {
		if v != entry.NextHop && n.reaches(v, f.Dst, at) {
			return true
		}
	}
	return false
}

// Programmable reports whether the flow can be rerouted at any switch on its
// path — the operational definition of a recovered (programmable) flow.
func (n *Network) Programmable(id flow.ID) bool {
	if id < 0 || int(id) >= len(n.Flows.Flows) {
		return false
	}
	f := &n.Flows.Flows[id]
	for _, v := range f.Path[:len(f.Path)-1] {
		if n.ProgrammableAt(id, v) {
			return true
		}
	}
	return false
}
