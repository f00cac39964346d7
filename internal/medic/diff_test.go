package medic

import (
	"fmt"
	"strings"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// TestDiffPushMatchesFullAssert drives a medic over real agents — its pushes
// are differences wherever its standby set vouches for a switch — beside a
// twin network whose agents are pushed the same plans in full, and requires
// every switch to hold the twin's table after every half of every episode:
// each of ATT's 63 failure sets failed and failed back, then {3} → {3,4} →
// revive 4 → revive 3, once on the vouched set and once with the leader
// killed (Stop, then New on the same WAL directory) before every step.
func TestDiffPushMatchesFullAssert(t *testing.T) {
	s := newLiveStack(t, 7)
	twin, err := sdnsim.New(s.dep, s.flows)
	if err != nil {
		t.Fatal(err)
	}
	twinAgents := make(map[topo.NodeID]*sdnsim.Agent, len(twin.Switches))
	for _, sw := range twin.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		twinAgents[sw.ID] = a
		t.Cleanup(func() { _ = a.Close() })
	}
	twinAddrs := sdnsim.AgentAddrs(twinAgents)

	// The twin's pushes run with no standby set, so each is the full assert.
	var sent, full, fulls int
	pusher := func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
		sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
		rep, err := sdnsim.PushRecoveryResilient(addrs, flows, inst, sol, opts)
		opts.Sessions = nil
		tw, twErr := sdnsim.PushRecoveryResilient(twinAddrs, flows, inst, sol, opts)
		if err != nil || twErr != nil || len(rep.Demoted)+len(tw.Demoted) != 0 {
			t.Fatalf("push %s: %v, twin %v", inst.Label(), err, twErr)
		}
		sent, full, fulls = sent+rep.FlowModsAcked, full+tw.FlowModsAcked, fulls+fullAsserts(rep.Outcomes)
		return rep, nil
	}
	restorer := func(addrs map[topo.NodeID]string, flows *flow.Set, switches []topo.NodeID,
		opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error) {
		rep, err := sdnsim.RestoreIdeal(addrs, flows, switches, opts)
		opts.Sessions = nil
		tw, twErr := sdnsim.RestoreIdeal(twinAddrs, flows, switches, opts)
		if err != nil || twErr != nil || len(rep.Failed)+len(tw.Failed) != 0 {
			t.Fatalf("restore %v: %v, twin %v", switches, err, twErr)
		}
		sent, full, fulls = sent+rep.FlowModsAcked, full+tw.FlowModsAcked, fulls+fullAsserts(rep.Outcomes)
		return rep, nil
	}

	dir := t.TempDir()
	var (
		m  *Medic
		st *store.Store
	)
	lead := func() {
		if st, err = store.Open(dir, store.Options{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		m, err = New(Config{Dep: s.dep, Flows: s.flows, Addrs: s.addrs, Push: sdnsim.PushOptions{Seed: 5},
			Store: st, Pusher: pusher, Restorer: restorer})
		if err != nil {
			t.Fatal(err)
		}
	}
	stop := func() {
		m.Stop()
		_ = st.Close()
	}
	lead()
	t.Cleanup(stop)

	// Every table is compared flow by flow: an entry exists only for a flow
	// through its switch.
	same := func(when string) {
		t.Helper()
		for sw, a := range s.agents {
			for _, e := range s.flows.Through(sw) {
				got, has := a.Entry(flow.ID(e.Flow))
				want, wants := twinAgents[sw].Entry(flow.ID(e.Flow))
				if has != wants || got != want {
					t.Fatalf("%s: switch %d flow %d: entry %+v (%v), the full-assert twin %+v (%v)",
						when, sw, e.Flow, got, has, want, wants)
				}
			}
		}
	}
	step := func(when string, ev monitor.Event, converged, ideal bool) {
		t.Helper()
		if got := drive(m, ev); got.Converged != converged || got.Ideal != ideal {
			t.Fatalf("%s: ideal=%v converged=%v (%s)", when, got.Ideal, got.Converged, got.Case)
		}
		same(when)
	}

	for mask := 1; mask < 1<<len(s.dep.Controllers); mask++ {
		var set []int
		for j := range s.dep.Controllers {
			if mask&(1<<j) != 0 {
				set = append(set, j)
			}
		}
		// With every controller down there is nothing to plan for.
		step(fmt.Sprintf("fail %v", set), monitor.Event{Failed: set}, len(set) < len(s.dep.Controllers), false)
		step(fmt.Sprintf("fail back %v", set), monitor.Event{Recovered: set}, true, true)
	}
	if sent >= full/2 || fulls == 0 {
		t.Fatalf("the medic's pushes acked %d flow-mods over the 63 sets (%d switches in full), the full asserts %d", sent, fulls, full)
	}
	var metrics strings.Builder
	if _, err := m.Metrics().WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("pmedicd_push_flowmods_total %d\n", sent),
		fmt.Sprintf("pmedicd_full_asserts_total %d\n", fulls),
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	for _, killed := range []bool{false, true} {
		for _, c := range []struct {
			when  string
			ev    monitor.Event
			ideal bool
		}{
			{"{3}", monitor.Event{Failed: []int{3}}, false},
			{"{3,4}", monitor.Event{Failed: []int{4}}, false},
			{"revive 4", monitor.Event{Recovered: []int{4}}, false},
			{"revive 3", monitor.Event{Recovered: []int{3}}, true},
		} {
			if killed {
				stop()
				lead()
			}
			step(c.when, c.ev, true, c.ideal)
		}
	}
}
