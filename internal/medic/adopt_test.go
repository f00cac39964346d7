package medic

import (
	"reflect"
	"sort"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
)

// sortedSnapshot is the reference for achievedSnapshot: it appends the
// mapping and every offline flow, recoverable then unrecoverable, and sorts
// the flows by ID, relying on nothing about the order of either list.
func sortedSnapshot(inst *scenario.Instance, done pushes, rep *core.Report, restores int) snapshot {
	s := snapshot{Label: inst.Label(), Outcome: Outcome{
		Converged:      true,
		Restores:       restores,
		MinProg:        rep.MinProg,
		TotalProg:      rep.TotalProg,
		RecoveredFlows: rep.RecoveredFlows,
		OfflineFlows:   inst.OfflineFlowCount(),
		PushRounds:     done.n,
		FlowModsAcked:  done.acked,
	}}
	for i, jj := range done.last.SwitchController {
		e := MappingEntry{Switch: inst.Switches[i], Controller: -1}
		if jj >= 0 {
			e.Controller = inst.Active[jj]
		}
		s.Mapping = append(s.Mapping, e)
	}
	for l, prog := range rep.FlowProg {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: inst.FlowIDs[l], Prog: prog})
	}
	for _, lid := range inst.Unrecoverable {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: lid, Prog: 0})
	}
	sort.Slice(s.FlowProg, func(a, b int) bool { return s.FlowProg[a].Flow < s.FlowProg[b].Flow })
	return s
}

// TestAchievedSnapshotMatchesSortedReference: the merged outcome equals the
// sort-based reference on all 62 ATT failure sets of one to five controllers,
// planned by PM, and on hand-made flow lists whose unrecoverable flows sit
// before, between and after the recoverable ones, or where either list is
// empty. On every ATT set it allocates only the label's allocations, the
// mapping and the flow list: nothing grows by append and nothing sorts.
func TestAchievedSnapshotMatchesSortedReference(t *testing.T) {
	dep, flows := testFixture(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	var last *scenario.Instance
	var lastDone pushes
	sets := 0
	for k := 1; k < len(dep.Controllers); k++ {
		for _, failed := range scenario.Combinations(len(dep.Controllers), k) {
			sets++
			inst, err := ctx.Build(failed)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := core.PM(inst.Problem)
			if err != nil {
				t.Fatalf("PM %v: %v", failed, err)
			}
			rep, err := inst.Evaluate(sol)
			if err != nil {
				t.Fatalf("evaluate %v: %v", failed, err)
			}
			done := pushes{n: 1, acked: 3 * len(failed), last: sol}
			got := achievedSnapshot(inst, done, rep, k)
			if want := sortedSnapshot(inst, done, rep, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %v (%d+%d offline flows): merged snapshot differs from the sorted reference",
					failed, len(inst.FlowIDs), len(inst.Unrecoverable))
			}
			label := testing.AllocsPerRun(5, func() { _ = inst.Label() })
			allocs := testing.AllocsPerRun(5, func() { _ = achievedSnapshot(inst, done, rep, k) })
			if allocs > label+2 {
				t.Fatalf("case %v: achievedSnapshot = %.0f allocs/op, want <= %.0f (the label's) + 2", failed, allocs, label)
			}
			last, lastDone = inst, done
		}
	}
	if sets != 62 {
		t.Fatalf("ran %d ATT failure sets, want 62", sets)
	}

	ids := func(v ...flow.ID) []flow.ID { return v }
	for _, c := range []struct {
		name           string
		recov, unrecov []flow.ID
	}{
		{"unrecoverable first", ids(10, 11, 12), ids(1, 2)},
		{"unrecoverable between", ids(1, 5, 9), ids(3, 4, 7)},
		{"unrecoverable last", ids(1, 2), ids(8, 9)},
		{"interleaved", ids(0, 2, 4, 6), ids(1, 3, 5, 7)},
		{"no unrecoverable", ids(2, 4), nil},
		{"no recoverable", nil, ids(3, 6)},
	} {
		inst := *last
		inst.FlowIDs, inst.Unrecoverable = c.recov, c.unrecov
		rep := &core.Report{MinProg: 1, TotalProg: len(c.recov), RecoveredFlows: len(c.recov)}
		for l := range c.recov {
			rep.FlowProg = append(rep.FlowProg, l+1)
		}
		got := achievedSnapshot(&inst, lastDone, rep, 0)
		if want := sortedSnapshot(&inst, lastDone, rep, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: flows %v\nwant %v", c.name, got.FlowProg, want.FlowProg)
		}
	}
}
