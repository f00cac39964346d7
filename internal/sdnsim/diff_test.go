package sdnsim

import (
	"slices"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// These tests pin the standby set's record of the switch tables: a push the
// set vouches for sends only the difference, and every case in which it
// cannot vouch — a switch that restarted, a push left Dirty — falls back to
// the full assert. Each compares the agents' tables with a twin network that
// received full asserts only.

// tableOf returns the agent's flow table.
func tableOf(a *Agent) []FlowEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.sw.entries)
}

// diffRig drives one standby set over a push fixture, mirroring every push in
// full onto the twin.
type diffRig struct {
	t     *testing.T
	fx    *pushFixture
	addrs map[topo.NodeID]string
	twin  *Network
	set   *Sessions
	opts  PushOptions
}

func newDiffRig(t *testing.T) *diffRig {
	t.Helper()
	fx := newPushFixture(t, []int{3, 4})
	twin, err := New(fx.n.Dep, fx.n.Flows)
	if err != nil {
		t.Fatal(err)
	}
	set := NewSessions()
	t.Cleanup(set.Close)
	return &diffRig{t: t, fx: fx, addrs: pushedAddrs(fx), twin: twin, set: set,
		opts: PushOptions{Sessions: set, MaxAttempts: 1, GenerationID: 1}}
}

// recover pushes the fixture's plan with opts and applies it in full to the
// twin, except on the switches the push demoted.
func (r *diffRig) recover(opts PushOptions) *RecoveryReport {
	r.t.Helper()
	r.opts.GenerationID++
	opts.GenerationID = r.opts.GenerationID
	rep, err := PushRecoveryResilient(r.addrs, r.fx.n.Flows, r.fx.inst, r.fx.sol, opts)
	if err != nil {
		r.t.Fatal(err)
	}
	plan, err := buildPushPlan(r.fx.n.Flows, r.fx.inst, r.fx.sol, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, sp := range plan {
		if !slices.Contains(rep.Demoted, sp.sw) {
			for _, m := range sp.mods {
				r.twin.Switches[sp.sw].Apply(m)
			}
		}
	}
	return rep
}

// restore fails back every pushed switch and restores the twin in full.
func (r *diffRig) restore() *RestoreReport {
	r.t.Helper()
	r.opts.GenerationID++
	var switches []topo.NodeID
	for sw := range r.addrs {
		switches = append(switches, sw)
	}
	slices.Sort(switches)
	rep, err := RestoreIdeal(r.addrs, r.fx.n.Flows, switches, r.opts)
	if err != nil || len(rep.Failed) != 0 {
		r.t.Fatalf("restore: failed %v, err %v", rep.Failed, err)
	}
	for _, sw := range switches {
		for _, m := range restoreMods(r.fx.n.Flows, sw, nil) {
			r.twin.Switches[sw].Apply(m)
		}
	}
	return rep
}

// same asserts that every agent holds the twin's table.
func (r *diffRig) same(when string) {
	r.t.Helper()
	for sw, a := range r.fx.agents {
		if got, want := tableOf(a), r.twin.Switches[sw].entries; !slices.Equal(got, want) {
			r.t.Fatalf("%s: switch %d holds %d entries, the full-assert twin %d, or they differ", when, sw, len(got), len(want))
		}
	}
}

// wantFull asserts which switches of outs were pushed in full.
func wantFull(t *testing.T, when string, outs []SwitchOutcome, full func(topo.NodeID) bool) {
	t.Helper()
	for _, out := range outs {
		if out.Status == PushApplied && out.Full != full(out.Switch) {
			t.Fatalf("%s: switch %d pushed in full = %v, want %v", when, out.Switch, out.Full, full(out.Switch))
		}
	}
}

func allFull(topo.NodeID) bool  { return true }
func noneFull(topo.NodeID) bool { return false }

// vouchAll takes the rig from a new set to one that vouches for every pushed
// switch: a full recovery vouches for nothing, the full fail-back after it
// for every switch; the next recovery and fail-back are differences.
func (r *diffRig) vouchAll() {
	r.t.Helper()
	wantFull(r.t, "first recovery", r.recover(r.opts).Outcomes, allFull)
	r.same("first recovery")
	wantFull(r.t, "first fail-back", r.restore().Outcomes, allFull)
	r.same("first fail-back")
	full := 0
	plan, _ := buildPushPlan(r.fx.n.Flows, r.fx.inst, r.fx.sol, nil)
	for _, sp := range plan {
		full += len(sp.mods)
	}
	rep := r.recover(r.opts)
	wantFull(r.t, "vouched recovery", rep.Outcomes, noneFull)
	if rep.FlowModsAcked >= full {
		r.t.Fatalf("vouched recovery acked %d flow-mods, the full assert is %d", rep.FlowModsAcked, full)
	}
	r.same("vouched recovery")
	wantFull(r.t, "vouched fail-back", r.restore().Outcomes, noneFull)
	r.same("vouched fail-back")
}

// mappedWith returns a switch the plan maps with an SDN-mode pair (active)
// or a legacy one.
func mappedWith(t *testing.T, fx *pushFixture, active bool) topo.NodeID {
	t.Helper()
	p := fx.inst.Problem
	for i, sw := range fx.inst.Switches {
		if lo, hi := p.SwitchRun(i); fx.sol.SwitchController[i] >= 0 && slices.Contains(fx.sol.Active[lo:hi], active) {
			return sw
		}
	}
	t.Fatalf("no mapped switch with a pair active=%v", active)
	return -1
}

// TestRestartedSwitchIsAssertedInFull: a switch that restarts under a set
// that vouched for it answers with a new boot nonce, and may have lost its
// table. The next recovery must send it the full assert on the same session,
// and the fail-back after that too: a full recovery vouches for nothing.
func TestRestartedSwitchIsAssertedInFull(t *testing.T) {
	r := newDiffRig(t)
	r.vouchAll()

	// A recovery's difference adds nothing to a steady table, so the
	// SDN-mode entries the restart lost stay lost unless it is sent in full.
	victim := mappedWith(t, r.fx, true)
	if err := r.fx.agents[victim].Close(); err != nil {
		t.Fatal(err)
	}
	r.fx.n.Switches[victim].entries = nil
	r.twin.Switches[victim].entries = nil
	again, err := ServeSwitch(r.fx.n.Switches[victim], r.addrs[victim])
	if err != nil {
		t.Fatal(err)
	}
	r.fx.agents[victim] = again

	isVictim := func(sw topo.NodeID) bool { return sw == victim }
	rep := r.recover(r.opts)
	if len(rep.Demoted) != 0 {
		t.Fatalf("recovery after the restart demoted %v", rep.Demoted)
	}
	r.same("recovery after the restart")
	wantFull(t, "recovery after the restart", rep.Outcomes, isVictim)
	rr := r.restore()
	r.same("fail-back after the restart")
	wantFull(t, "fail-back after the restart", rr.Outcomes, isVictim)
	rep = r.recover(r.opts)
	r.same("recovery once vouched again")
	wantFull(t, "recovery once vouched again", rep.Outcomes, noneFull)
}

// TestDirtySwitchIsAssertedInFull: a push cut mid-batch, as in
// TestPushResetMidBatchIsDirtyThenConverges, leaves a switch Dirty — any
// prefix of its difference may have landed — and the set must stop vouching
// for it: the next push to it is the full assert.
func TestDirtySwitchIsAssertedInFull(t *testing.T) {
	r := newDiffRig(t)
	r.vouchAll()

	// The victim's difference deletes a legacy pair's entry, and its next
	// attempt dials: that dial is the one cut.
	victim := mappedWith(t, r.fx, false)
	conn, _, err := r.set.acquire(r.addrs[victim], r.opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	r.set.release(r.addrs[victim], conn, false, false)
	cut := r.opts
	cut.Dial = resetFirstDial(11)
	rep := r.recover(cut)
	out := rep.Outcomes[indexOf(t, r.fx, victim)]
	if !slices.Equal(rep.Demoted, []topo.NodeID{victim}) || !out.Dirty {
		t.Fatalf("cut recovery: demoted %v, victim %+v; want the victim demoted Dirty", rep.Demoted, out)
	}

	rr := r.restore()
	r.same("fail-back after the cut")
	wantFull(t, "fail-back after the cut", rr.Outcomes, func(sw topo.NodeID) bool { return sw == victim })
	for _, o := range rr.Outcomes {
		if want := len(restoreMods(r.fx.n.Flows, victim, nil)); o.Switch == victim && o.FlowModsAcked != want {
			t.Fatalf("fail-back of the Dirty switch acked %d flow-mods, its full table is %d", o.FlowModsAcked, want)
		}
	}
}

// TestCarrierScalePushCounts pins what a recovery sends on scale-syn's six
// depth-1 cases (1000 nodes, 999 000 flows): the full assert, and the
// difference against a steady state the set vouches for. The counts are what
// this code measured when the test was written: PM activates every pair at
// a switch it maps there, so the difference is empty. They move only if
// routing, the PM plan or the push plan changes.
func TestCarrierScalePushCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 999 000-flow fixture")
	}
	opts := topo.SyntheticOpts{Seed: 1, Regions: 8}
	dep, err := topo.SyntheticWithOpts(1000, 50, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		maxLoad = max(maxLoad, load)
	}
	if dep, err = topo.SyntheticWithOpts(1000, 50, maxLoad+maxLoad/2+1, opts); err != nil {
		t.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	count := func(plan []switchPush) (n int) {
		for _, sp := range plan {
			n += len(sp.mods)
		}
		return n
	}
	for _, c := range []struct {
		set        []int
		full, diff int
	}{
		{[]int{13}, 263966, 0},
		{[]int{17}, 208765, 0},
		{[]int{22}, 258007, 0},
		{[]int{25}, 190954, 0},
		{[]int{29}, 127433, 0},
		{[]int{37}, 165155, 0},
	} {
		inst, err := ctx.Build(c.set)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.PM(inst.Problem)
		if err != nil {
			t.Fatal(err)
		}
		full, err := buildPushPlan(flows, inst, sol, nil)
		if err != nil {
			t.Fatal(err)
		}
		steady := NewSessions()
		for _, sw := range inst.Switches {
			steady.tables[sw] = table{}
		}
		diff, err := buildPushPlan(flows, inst, sol, steady)
		if err != nil {
			t.Fatal(err)
		}
		if got := count(full); got != c.full {
			t.Errorf("case %v: the full assert is %d flow-mods, want %d", c.set, got, c.full)
		}
		if got := count(diff); got != c.diff {
			t.Errorf("case %v: the difference is %d flow-mods, want %d", c.set, got, c.diff)
		}
	}
}
