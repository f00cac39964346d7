// Package sdnsim is the behavioural substrate of the reproduction: an SD-WAN
// data/control-plane model. Every switch runs the hybrid pipeline of the
// paper's Fig. 2 — a high-priority flow table holding one entry per flow,
// falling through on a miss to the legacy (OSPF) table, here its converged
// shortest-delay table — and controllers own switch domains, fail, and
// re-map. Recovery solutions computed by internal/core (or internal/opt) are
// applied to the network, in process or over the openflow wire, and their
// effect on packet forwarding and reroutability is observable. Over the wire
// each switch is an Agent: an openflow.Server whose handler applies the
// controller's flow-mods to the switch.
package sdnsim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// Verdict describes how a switch decided a packet's next hop.
type Verdict int

// Verdicts.
const (
	// VerdictFlowTable: matched a flow entry (the flow is SDN-routed here).
	VerdictFlowTable Verdict = iota + 1
	// VerdictLegacy: fell through to the legacy table.
	VerdictLegacy
	// VerdictDelivered: the packet reached its destination at this switch.
	VerdictDelivered
	// VerdictDrop: nothing could route the packet.
	VerdictDrop
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictFlowTable:
		return "flow-table"
	case VerdictLegacy:
		return "legacy"
	case VerdictDelivered:
		return "delivered"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("sdnsim.Verdict(%d)", int(v))
	}
}

// FlowEntry is one flow-table row: exact match on flow ID, forward to
// NextHop. A switch holds at most one entry per flow.
type FlowEntry struct {
	FlowID  flow.ID
	NextHop topo.NodeID
}

// Switch is one forwarding element running the paper's hybrid pipeline.
type Switch struct {
	ID topo.NodeID

	// Controller is the index of the managing controller, -1 when offline
	// (unmanaged). An offline switch keeps forwarding with its installed
	// state; it just cannot be reprogrammed.
	Controller int

	entries []FlowEntry // sorted by FlowID, one per flow
	// legacy[dst] is the converged legacy next hop toward dst, -1 for the
	// switch itself and unreachable destinations.
	legacy []topo.NodeID
}

// Switch errors.
var (
	ErrNoEntry   = errors.New("sdnsim: no matching flow entry")
	ErrUnmanaged = errors.New("sdnsim: switch is unmanaged")
)

// NewSwitch builds a switch with the given legacy table (next hop per
// destination).
func NewSwitch(id topo.NodeID, legacy []topo.NodeID) *Switch {
	return &Switch{ID: id, Controller: -1, legacy: legacy}
}

// find returns the index of the flow's entry, or the sorted insert position
// and false.
func (s *Switch) find(id flow.ID) (int, bool) {
	return slices.BinarySearchFunc(s.entries, id, func(e FlowEntry, id flow.ID) int {
		return cmp.Compare(e.FlowID, id)
	})
}

// InstallEntry adds the entry for a flow, or replaces the one it has.
func (s *Switch) InstallEntry(e FlowEntry) {
	i, found := s.find(e.FlowID)
	if found {
		s.entries[i] = e
		return
	}
	s.entries = slices.Insert(s.entries, i, e)
}

// RemoveEntry deletes a flow's entry; it reports whether one existed.
func (s *Switch) RemoveEntry(id flow.ID) bool {
	i, found := s.find(id)
	if found {
		s.entries = slices.Delete(s.entries, i, i+1)
	}
	return found
}

// Apply executes one flow-mod against the flow table. It is the single
// translation from the wire's FlowMod to table state: the agent applies what
// a controller sends, and Network.ApplyRecovery applies the same plan in
// process. The flow-mod's priority is not read: a switch holds one entry per
// flow.
func (s *Switch) Apply(m openflow.FlowMod) {
	switch m.Command {
	case openflow.FlowAdd:
		s.InstallEntry(FlowEntry{FlowID: flow.ID(m.Match.FlowID), NextHop: topo.NodeID(m.NextHop)})
	case openflow.FlowDelete:
		s.RemoveEntry(flow.ID(m.Match.FlowID))
	}
}

// Entry returns the flow's entry.
func (s *Switch) Entry(id flow.ID) (FlowEntry, bool) {
	if i, found := s.find(id); found {
		return s.entries[i], true
	}
	return FlowEntry{}, false
}

// Forward runs the hybrid pipeline of Fig. 2 for a packet of the given flow
// headed to dst: the flow table, on a miss the legacy table, else drop. It
// returns the chosen next hop and the verdict.
func (s *Switch) Forward(id flow.ID, dst topo.NodeID) (topo.NodeID, Verdict) {
	if s.ID == dst {
		return -1, VerdictDelivered
	}
	if e, ok := s.Entry(id); ok {
		return e.NextHop, VerdictFlowTable
	}
	if dst >= 0 && int(dst) < len(s.legacy) && s.legacy[dst] >= 0 {
		return s.legacy[dst], VerdictLegacy
	}
	return -1, VerdictDrop
}

// Managed reports whether the switch currently has a managing controller.
func (s *Switch) Managed() bool { return s.Controller >= 0 }
