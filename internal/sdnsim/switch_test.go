package sdnsim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// referenceTable is a flow table as a map keyed by flow ID, listed in flow
// order.
func referenceTable(ref map[flow.ID]FlowEntry) []FlowEntry {
	var out []FlowEntry
	for _, e := range ref {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b FlowEntry) int { return cmp.Compare(a.FlowID, b.FlowID) })
	return out
}

// TestInstallEntryMatchesSort applies random add, replace and delete
// sequences to a switch and requires its flow table to equal, entry for
// entry, the reference map's entries sorted by flow ID.
func TestInstallEntryMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for seq := 0; seq < 200; seq++ {
		s := NewSwitch(0, nil)
		ref := map[flow.ID]FlowEntry{}
		numFlows := 1 + rng.Intn(40)
		for op := 0; op < 300; op++ {
			id := flow.ID(rng.Intn(numFlows))
			if rng.Intn(20) < 14 { // an add, a replace when the flow has an entry
				e := FlowEntry{FlowID: id, NextHop: topo.NodeID(rng.Intn(25))}
				s.InstallEntry(e)
				ref[id] = e
			} else {
				_, had := ref[id]
				delete(ref, id)
				if got := s.RemoveEntry(id); got != had {
					t.Fatalf("sequence %d, op %d: RemoveEntry(%d) = %v, the flow had an entry: %v", seq, op, id, got, had)
				}
			}
			if want := referenceTable(ref); !slices.Equal(s.entries, want) {
				t.Fatalf("sequence %d, op %d: table %v, the reference %v", seq, op, s.entries, want)
			}
		}
	}
}

// TestEntryMatchesMapReference drives ATT's steady-state switches with random
// add, replace and delete flow-mods through Switch.Apply, the agent's and
// ApplyRecovery's translation, for flow IDs of the workload and beyond it,
// and after every flow-mod looks up every such ID with Entry against a map
// of what was applied.
func TestEntryMatchesMapReference(t *testing.T) {
	n := network(t)
	ids := n.Flows.Len() + 64 // the last 64 are outside the workload
	rng := rand.New(rand.NewSource(53))
	for _, sw := range n.Switches {
		ref := make(map[flow.ID]FlowEntry, len(sw.entries))
		for _, e := range sw.entries {
			ref[e.FlowID] = e
		}
		for op := 0; op < 40; op++ {
			id := flow.ID(rng.Intn(ids))
			m := openflow.FlowMod{Command: openflow.FlowDelete, Priority: uint16(rng.Intn(3) * 100), Match: openflow.Match{FlowID: uint32(id)}}
			if rng.Intn(3) > 0 {
				m.Command, m.NextHop = openflow.FlowAdd, uint32(rng.Intn(len(n.Switches)))
				ref[id] = FlowEntry{FlowID: id, NextHop: topo.NodeID(m.NextHop)}
			} else {
				delete(ref, id)
			}
			sw.Apply(m)
			for l := 0; l < ids; l++ {
				want, wantOK := ref[flow.ID(l)]
				if got, ok := sw.Entry(flow.ID(l)); ok != wantOK || got != want {
					t.Fatalf("switch %d, op %d (%+v): Entry(%d) = %+v, %v, want %+v, %v", sw.ID, op, m, l, got, ok, want, wantOK)
				}
			}
		}
	}
}
