package medic

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// stepFixture is a pass that has seen nothing, over the ATT deployment, and
// the inputs a {3} episode feeds it: the plan, a push that reached every
// switch, one refused by a newer generation, one that demoted the plan's
// first mapped switch (dead) and the re-plan around it, which also leaves the
// next mapped switch (cleared) unmapped, and two fail-back reports — one that
// reached controller 3's whole domain and one that missed its first switch.
type stepFixture struct {
	idle                      pass
	sol, stripped, resid      *core.Solution
	pushed, fenced, demoted   *sdnsim.RecoveryReport
	restored, partly          *sdnsim.RestoreReport
	lost, dead                topo.NodeID
	clearedAt                 int
	label3                    string
	offlineFlows3, mapping3Sz int
}

func newStepFixture(t *testing.T) stepFixture {
	t.Helper()
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
	domain := dep.Controllers[3].Domain
	var mapped []int
	for i, j := range sol.SwitchController {
		if j >= 0 {
			mapped = append(mapped, i)
		}
	}
	if len(mapped) < 2 {
		t.Fatalf("the {3} plan maps %d switches, want at least 2", len(mapped))
	}
	without := func(s *core.Solution, unmap ...int) *core.Solution {
		c := &core.Solution{Algorithm: s.Algorithm, SwitchController: slices.Clone(s.SwitchController), Active: slices.Clone(s.Active)}
		for _, i := range unmap {
			c.SwitchController[i] = -1
			lo, hi := inst.Problem.SwitchRun(i)
			clear(c.Active[lo:hi])
		}
		return c
	}
	dead := inst.Switches[mapped[0]]
	f := stepFixture{
		idle:      pass{state: idleState(), ctx: ctx},
		sol:       sol,
		stripped:  without(sol, mapped[0]),
		resid:     without(sol, mapped[0], mapped[1]),
		pushed:    &sdnsim.RecoveryReport{},
		fenced:    &sdnsim.RecoveryReport{Outcomes: []sdnsim.SwitchOutcome{{Switch: domain[0], Err: sdnsim.ErrFenced}}},
		demoted:   &sdnsim.RecoveryReport{Demoted: []topo.NodeID{dead}},
		dead:      dead,
		clearedAt: mapped[1],
		restored:  &sdnsim.RestoreReport{},
		partly:    &sdnsim.RestoreReport{Failed: []topo.NodeID{domain[0]}},
		lost:      domain[0],
		label3:    inst.Label(),
	}
	f.offlineFlows3, f.mapping3Sz = inst.OfflineFlowCount(), len(inst.Switches)
	return f
}

// Inputs, each stamped by feed with the clock the table runs on.
func detected(failed, recovered []int) input {
	return input{events: []monitor.Event{{Seq: 1, Failed: failed, Recovered: recovered}}}
}
func answered() input                          { return input{} }
func failed(err error) input                   { return input{err: err} }
func planned(sol *core.Solution, q bool) input { return input{sol: sol, queued: q} }
func pushed(rep *sdnsim.RecoveryReport) input  { return input{pushed: rep} }
func restored(rep *sdnsim.RestoreReport) input { return input{restored: rep} }

// TestStepExits drives step through every way a pass can end, with no
// goroutine, clock or sleep: each row feeds a fresh pass the inputs that lead
// up to one exit, then the input that takes it, and holds step to the state,
// the entries and the effect that follow. Each step is taken twice from the
// same state, which must give the same result: step writes into nothing it
// is handed.
func TestStepExits(t *testing.T) {
	f := newStepFixture(t)
	boom := errors.New("boom")
	up3 := []input{detected([]int{3}, nil), answered()}
	pushed3 := append(slices.Clone(up3), planned(f.sol, false), pushed(f.pushed))
	converged3 := append(slices.Clone(pushed3), answered())
	back3 := append(slices.Clone(converged3), detected(nil, []int{3}), answered())
	demoted3 := append(slices.Clone(up3), planned(f.sol, false), pushed(f.demoted))
	replanned3 := append(slices.Clone(demoted3), planned(f.resid, false))
	// A later pass, {3,4}, whose first plan is the residual around the switch
	// {3}'s pass found dead.
	residual34 := append(slices.Clone(replanned3), pushed(f.pushed), answered(), detected([]int{4}, nil), answered())
	dead := []topo.NodeID{f.dead}
	// adopts holds the pass to adopting sol after the given number of pushes.
	adopts := func(sol *core.Solution, pushes int) func(*testing.T, pass, pass) {
		return func(t *testing.T, _, p pass) {
			if !slices.Equal(p.next.sol.SwitchController, sol.SwitchController) || !slices.Equal(p.next.sol.Active, sol.Active) {
				t.Errorf("adopts %v, want %v", p.next.sol.SwitchController, sol.SwitchController)
			}
			if p.next.out.PushRounds != pushes || !p.next.out.Converged {
				t.Errorf("outcome to adopt: %d push rounds, converged %v; want %d, true", p.next.out.PushRounds, p.next.out.Converged, pushes)
			}
		}
	}

	type row struct {
		name   string
		before []input
		in     input
		kinds  []Kind
		next   effectKind
		// The state that follows.
		converged, ideal bool
		label            string // a substring of the snapshot's label
		unreachable      []topo.NodeID
		pending          []int
		// check, when set, asserts more of the passes before and after in.
		check func(t *testing.T, before, after pass)
	}
	rows := []row{
		{name: "unreserved epoch", before: up3[:1], in: failed(store.ErrGuarded),
			kinds: []Kind{KindFenced}, next: effStepDown, label: "epoch 1 is not reserved"},
		{name: "unplannable set", before: []input{detected([]int{0, 1, 2, 3, 4, 5}, nil)}, in: answered(),
			kinds: []Kind{KindError}, next: effEnd, label: "unplannable"},
		{name: "plan error", before: up3, in: failed(boom),
			kinds: []Kind{KindError}, next: effEnd, label: "planning for " + f.label3 + " failed"},
		{name: "stale plan", before: up3, in: planned(f.sol, true),
			kinds: []Kind{KindStale}, next: effEnd},
		{name: "push error", before: append(slices.Clone(up3), planned(f.sol, false)), in: failed(boom),
			kinds: []Kind{KindError}, next: effEnd, label: "push for " + f.label3 + " failed"},
		{name: "fenced push", before: append(slices.Clone(up3), planned(f.sol, false)), in: pushed(f.fenced),
			kinds: []Kind{KindFenced}, next: effStepDown, label: "fenced by a newer generation"},
		{name: "adopt error", before: pushed3, in: failed(boom),
			kinds: []Kind{KindError}, next: effEnd, label: "adopting the " + f.label3 + " mapping failed"},
		{name: "converged", before: pushed3, in: answered(),
			kinds: []Kind{KindConverged}, next: effEnd, converged: true, label: f.label3},
		{name: "full fail-back", before: append(slices.Clone(back3), restored(f.restored)), in: answered(),
			kinds: []Kind{KindFailback}, next: effEnd, converged: true, ideal: true},
		{name: "partial fail-back", before: back3, in: restored(f.partly),
			kinds: []Kind{KindRestore, KindFailback}, next: effEnd, label: "incomplete",
			unreachable: []topo.NodeID{f.lost}, pending: []int{3}},
		{name: "push demotes", before: append(slices.Clone(up3), planned(f.sol, false)), in: pushed(f.demoted),
			kinds: []Kind{KindPush}, next: effPlan, unreachable: dead,
			check: func(t *testing.T, _, p pass) {
				if len(p.next.avoid) != 1 || !p.next.avoid[f.dead] {
					t.Errorf("re-plan avoiding %v, want the residual around %d", p.next.avoid, f.dead)
				}
			}},
		{name: "re-plan demotes nothing", before: replanned3, in: pushed(f.pushed),
			kinds: []Kind{KindPush}, next: effAdopt, unreachable: dead,
			check: func(t *testing.T, before, after pass) {
				push := before.next
				lo, hi := push.inst.Problem.SwitchRun(f.clearedAt)
				if push.sol.SwitchController[f.clearedAt] < 0 || slices.Contains(push.sol.Active[lo:hi], true) || push.plan.SwitchController[f.clearedAt] >= 0 {
					t.Errorf("re-plan pushes switch %d mapped to %d, the plan to %d; want it pushed mapped with nothing active, and unmapped in the plan",
						f.clearedAt, push.sol.SwitchController[f.clearedAt], push.plan.SwitchController[f.clearedAt])
				}
				adopts(f.resid, 2)(t, before, after)
			}},
		{name: "re-plan error", before: demoted3, in: failed(boom),
			kinds: []Kind{KindError}, next: effAdopt, unreachable: dead, check: adopts(f.stripped, 1)},
		{name: "residual error", before: residual34, in: failed(boom),
			kinds: []Kind{KindError}, next: effPlan, unreachable: dead,
			check: func(t *testing.T, before, p pass) {
				if !before.next.avoid[f.dead] || p.next.avoid != nil || p.next.inst != before.next.inst {
					t.Errorf("after a residual around %v failed, plans the same instance %v avoiding %v; want the whole instance",
						before.next.avoid, p.next.inst == before.next.inst, p.next.avoid)
				}
			}},
		{name: "queued re-plan", before: demoted3, in: planned(f.resid, true),
			kinds: []Kind{KindPlan, KindStale}, next: effEnd, unreachable: dead},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			clock := time.Unix(1000, 0)
			feed := func(p pass, in input) (pass, []LogEntry) {
				t.Helper()
				clock = clock.Add(time.Millisecond)
				in.at = clock
				next, entries := step(p, in)
				if again, _ := step(p, in); !reflect.DeepEqual(again.state, next.state) || again.next.kind != next.next.kind {
					t.Fatalf("the same input taken twice from the same state gave two states")
				}
				return next, entries
			}
			p := f.idle
			for i, in := range r.before {
				p, _ = feed(p, in)
				if p.next.kind == effEnd && (i+1 == len(r.before) || r.before[i+1].events == nil) {
					t.Fatalf("the pass ended at input %d of %d leading up to the exit", i+1, len(r.before))
				}
			}
			before := p
			p, entries := feed(p, r.in)
			if r.check != nil {
				r.check(t, before, p)
			}

			var kinds []Kind
			for _, e := range entries {
				kinds = append(kinds, e.Kind)
				if !e.At.Equal(clock) {
					t.Errorf("%s entry stamped %v, not with its input's clock %v", e.Kind, e.At, clock)
				}
			}
			if !slices.Equal(kinds, r.kinds) {
				t.Errorf("entries %v, want kinds %v", entries, r.kinds)
			}
			if p.next.kind != r.next {
				t.Errorf("next effect %d, want %d", p.next.kind, r.next)
			}
			snap := p.Snap
			if snap.Converged != r.converged || snap.Ideal != r.ideal || !strings.Contains(snap.Label, r.label) {
				t.Errorf("converged=%v ideal=%v label=%q, want %v, %v and a label with %q",
					snap.Converged, snap.Ideal, snap.Label, r.converged, r.ideal, r.label)
			}
			if !slices.Equal(p.Unreachable, r.unreachable) || !slices.Equal(p.PendingRecovered, r.pending) {
				t.Errorf("unreachable %v, pending %v; want %v, %v", p.Unreachable, p.PendingRecovered, r.unreachable, r.pending)
			}
			if r.converged && !r.ideal && (len(snap.Mapping) != f.mapping3Sz || snap.OfflineFlows != f.offlineFlows3 || !snap.UpdatedAt.Equal(clock)) {
				t.Errorf("converged snapshot: %d mapping rows, %d offline flows, updated %v", len(snap.Mapping), snap.OfflineFlows, snap.UpdatedAt)
			}
		})
	}
}
