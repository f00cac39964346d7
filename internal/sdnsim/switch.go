// Package sdnsim is the behavioural substrate of the reproduction: an SD-WAN
// data/control-plane model. Switches implement the three routing pipelines of
// the paper's Fig. 2 — pure OpenFlow, pure legacy (OSPF, here its converged
// shortest-delay table), and the hybrid high-priority-flow-table/
// legacy-fallthrough mode of high-end commercial switches — and controllers
// own switch domains, fail, and re-map. Recovery solutions computed by
// internal/core (or internal/opt) are applied to the network, in process or
// over the openflow wire, and their effect on packet forwarding and
// reroutability is observable.
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

// PipelineMode is a switch's packet-processing pipeline (paper Fig. 2).
type PipelineMode int

// Pipeline modes.
const (
	// PipelineSDN: flow-table only; a miss punts the packet (packet-in).
	PipelineSDN PipelineMode = iota + 1
	// PipelineLegacy: destination-based legacy (OSPF) table only.
	PipelineLegacy
	// PipelineHybrid: flow table first, miss falls through to legacy — the
	// OpenFlow/OSPF mode of Brocade MLX-8-class switches.
	PipelineHybrid
)

// String renders the mode.
func (m PipelineMode) String() string {
	switch m {
	case PipelineSDN:
		return "sdn"
	case PipelineLegacy:
		return "legacy"
	case PipelineHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("sdnsim.PipelineMode(%d)", int(m))
	}
}

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
	// VerdictPuntNoMatch: SDN-only pipeline missed; packet punted.
	VerdictPuntNoMatch
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
	case VerdictPuntNoMatch:
		return "punt-no-match"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("sdnsim.Verdict(%d)", int(v))
	}
}

// FlowEntry is one flow-table row: exact match on flow ID, forward to
// NextHop. Higher Priority wins.
type FlowEntry struct {
	FlowID   flow.ID
	Priority int
	NextHop  topo.NodeID
}

// Switch is one forwarding element.
type Switch struct {
	ID       topo.NodeID
	Pipeline PipelineMode

	// Controller is the index of the managing controller, -1 when offline
	// (unmanaged). An offline switch keeps forwarding with its installed
	// state; it just cannot be reprogrammed.
	Controller int

	entries []FlowEntry // kept sorted by (Priority desc, FlowID asc)
	// legacy[dst] is the converged legacy next hop toward dst, -1 for the
	// switch itself and unreachable destinations.
	legacy []topo.NodeID
}

// Switch errors.
var (
	ErrNoEntry   = errors.New("sdnsim: no matching flow entry")
	ErrUnmanaged = errors.New("sdnsim: switch is unmanaged")
)

// NewSwitch builds a hybrid-pipeline switch with the given legacy table
// (next hop per destination).
func NewSwitch(id topo.NodeID, legacy []topo.NodeID) *Switch {
	return &Switch{ID: id, Pipeline: PipelineHybrid, Controller: -1, legacy: legacy}
}

// InstallEntry adds or replaces the entry for a flow at a priority: keys are
// unique, so a binary search finds the entry or the sorted insert position.
func (s *Switch) InstallEntry(e FlowEntry) {
	i, found := slices.BinarySearchFunc(s.entries, e, func(a, b FlowEntry) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return cmp.Compare(a.FlowID, b.FlowID)
	})
	if found {
		s.entries[i] = e
		return
	}
	s.entries = slices.Insert(s.entries, i, e)
}

// RemoveEntry deletes all entries for a flow; it reports whether any existed.
func (s *Switch) RemoveEntry(id flow.ID) bool {
	kept := s.entries[:0]
	removed := false
	for _, e := range s.entries {
		if e.FlowID == id {
			removed = true
			continue
		}
		kept = append(kept, e)
	}
	s.entries = kept
	return removed
}

// FlushEntries removes every flow entry.
func (s *Switch) FlushEntries() { s.entries = nil }

// Apply executes one flow-mod against the flow table. It is the single
// translation from the wire's FlowMod to table state: the agent applies what
// a controller sends, and Network.ApplyRecovery applies the same plan in
// process.
func (s *Switch) Apply(m openflow.FlowMod) {
	switch m.Command {
	case openflow.FlowAdd:
		s.InstallEntry(FlowEntry{
			FlowID:   flow.ID(m.Match.FlowID),
			Priority: int(m.Priority),
			NextHop:  topo.NodeID(m.NextHop),
		})
	case openflow.FlowDelete:
		s.RemoveEntry(flow.ID(m.Match.FlowID))
	case openflow.FlowDeleteAll:
		s.FlushEntries()
	}
}

// Entry returns the highest-priority entry for a flow.
func (s *Switch) Entry(id flow.ID) (FlowEntry, bool) {
	for _, e := range s.entries {
		if e.FlowID == id {
			return e, true
		}
	}
	return FlowEntry{}, false
}

// Forward runs the pipeline of Fig. 2 for a packet of the given flow headed
// to dst, returning the chosen next hop and the verdict.
func (s *Switch) Forward(id flow.ID, dst topo.NodeID) (topo.NodeID, Verdict) {
	if s.ID == dst {
		return -1, VerdictDelivered
	}
	lookupFlow := func() (topo.NodeID, bool) {
		e, ok := s.Entry(id)
		if !ok {
			return -1, false
		}
		return e.NextHop, true
	}
	lookupLegacy := func() (topo.NodeID, bool) {
		if dst < 0 || int(dst) >= len(s.legacy) {
			return -1, false
		}
		nh := s.legacy[dst]
		return nh, nh >= 0
	}
	switch s.Pipeline {
	case PipelineSDN:
		if nh, ok := lookupFlow(); ok {
			return nh, VerdictFlowTable
		}
		return -1, VerdictPuntNoMatch
	case PipelineLegacy:
		if nh, ok := lookupLegacy(); ok {
			return nh, VerdictLegacy
		}
		return -1, VerdictDrop
	case PipelineHybrid:
		if nh, ok := lookupFlow(); ok {
			return nh, VerdictFlowTable
		}
		if nh, ok := lookupLegacy(); ok {
			return nh, VerdictLegacy
		}
		return -1, VerdictDrop
	default:
		return -1, VerdictDrop
	}
}

// Managed reports whether the switch currently has a managing controller.
func (s *Switch) Managed() bool { return s.Controller >= 0 }
