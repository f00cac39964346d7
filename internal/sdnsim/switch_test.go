package sdnsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// installEntrySorted is the flow-table insert as a full re-sort: replace the
// entry with an equal (Priority, FlowID) key, else append and stable-sort by
// (Priority desc, FlowID asc).
func installEntrySorted(entries []FlowEntry, e FlowEntry) []FlowEntry {
	for i := range entries {
		if entries[i].FlowID == e.FlowID && entries[i].Priority == e.Priority {
			entries[i] = e
			return entries
		}
	}
	entries = append(entries, e)
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].Priority != entries[b].Priority {
			return entries[a].Priority > entries[b].Priority
		}
		return entries[a].FlowID < entries[b].FlowID
	})
	return entries
}

// TestInstallEntryMatchesSort applies random add, replace, delete and flush
// sequences to a switch and requires its flow table to equal, entry for
// entry, the table the re-sorting insert builds from the same sequence.
func TestInstallEntryMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	priorities := []int{0, 1, 100, 100, 200}
	for seq := 0; seq < 200; seq++ {
		s := NewSwitch(0, nil)
		var want []FlowEntry
		numFlows := 1 + rng.Intn(40)
		for op := 0; op < 300; op++ {
			id := flow.ID(rng.Intn(numFlows))
			switch r := rng.Intn(20); {
			case r < 14: // an add, a replace when the key is already installed
				e := FlowEntry{FlowID: id, Priority: priorities[rng.Intn(len(priorities))], NextHop: topo.NodeID(rng.Intn(25))}
				s.InstallEntry(e)
				want = installEntrySorted(want, e)
			case r < 19:
				want = slices.DeleteFunc(want, func(e FlowEntry) bool { return e.FlowID == id })
				s.RemoveEntry(id)
			default:
				s.FlushEntries()
				want = nil
			}
			if !slices.Equal(s.entries, want) {
				t.Fatalf("sequence %d, op %d: table %v, the re-sorting insert %v", seq, op, s.entries, want)
			}
		}
	}
}
