package medic

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// effectKind names the I/O a pass waits on.
type effectKind int

const (
	effEnd      effectKind = iota // none: the pass is over, or none has begun
	effReserve                    // have the epoch durably reserved (ensureReserved)
	effRestore                    // push the returned domains' ideal tables (Config.Restorer)
	effRehome                     // give whole returned domains back to their controllers (Network)
	effPlan                       // plan the instance, around the switches in avoid if any
	effPush                       // push a plan (Config.Pusher)
	effAdopt                      // record the mapping pushed in the network (Network)
	effStepDown                   // tell the owner a newer leader has taken over (Config.OnFenced)
)

// effect is one piece of I/O step asks the shell for, with its operands.
type effect struct {
	kind     effectKind
	switches []topo.NodeID        // restore: the returned domains
	ctrls    []int                // rehome
	inst     *scenario.Instance   // plan, push, adopt
	avoid    map[topo.NodeID]bool // plan: the switches a residual solve leaves out; nil solves the whole instance
	sol      *core.Solution       // push: what to push; adopt: the mapping the pushes achieved
	plan     *core.Solution       // push: the plan, without the switches sol maps to clear them
	done     pushes               // plan, push: what the pass's pushes so far left
	out      *snapshot            // adopt: the outcome in force once it is adopted
}

// pushes is what a pass's pushes have left: how many there were, the
// flow-mods they had acknowledged, and last, the plan the latest one pushed
// without the switches it demoted.
type pushes struct {
	n, acked int
	last     *core.Solution
}

// input is what the shell feeds step: a detector batch, or the result of the
// effect the pass waits on, with the clock reading taken as it arrived.
type input struct {
	at       time.Time
	events   []monitor.Event        // a detector batch
	err      error                  // the effect failed
	restored *sdnsim.RestoreReport  // restore
	sol      *core.Solution         // plan
	queued   bool                   // plan: newer events were queued as it returned
	pushed   *sdnsim.RecoveryReport // push
}

// pass is step's state: the daemon's state, which the shell publishes and
// journals, what step only reads, and what the pass in flight has learnt.
type pass struct {
	state
	ctx *scenario.Context // the deployment, and the failure sets compiled against it

	next effect     // what the pass waits on, with what it has learnt
	at   time.Time  // the clock reading of the last input
	log  []LogEntry // the entries the last input led to
}

// step is every decision of a reconcile pass: it takes one input into the
// pass and returns the state that follows, with the entries it stamped.
func step(p pass, in input) (pass, []LogEntry) {
	p.at, p.log = in.at, nil
	p.take(in)
	return p, p.log
}

// note stamps one entry of the current epoch.
func (p *pass) note(kind Kind, format string, args ...any) {
	p.log = append(p.log, LogEntry{At: p.at, Kind: kind, Msg: fmt.Sprintf("epoch %d: ", p.Epoch) + fmt.Sprintf(format, args...)})
}

// unconverged ends the pass with no plan in force for the failure set: the
// state says why, the entry says what happened.
func (p *pass) unconverged(why string, kind Kind, format string, args ...any) {
	p.Snap.Converged, p.Snap.Ideal, p.Snap.Label, p.Snap.UpdatedAt = false, false, why, p.at
	p.note(kind, format, args...)
	p.next = effect{}
}

func (p *pass) take(in input) {
	if in.events != nil {
		for _, ev := range in.events {
			p.Epoch++
			p.note(KindDetect, "%s", ev)
			p.detect(ev.Failed, ev.Recovered)
		}
		p.next = effect{kind: effReserve}
		return
	}
	switch p.next.kind {
	case effReserve:
		if in.err != nil {
			// A claim signed outside the reservation could land in the range
			// of a successor, which resumed above it.
			p.unconverged(fmt.Sprintf("epoch %d is not reserved", p.Epoch), KindFenced,
				"nothing pushed: %v; a newer leader owns the store", in.err)
			p.next.kind = effStepDown
			return
		}
		// Fail-back first, in one Restorer call: the returned domains' ideal
		// tables go back before anything is planned around them.
		var switches []topo.NodeID
		for _, j := range p.PendingRecovered {
			if j < 0 || j >= len(p.ctx.Dep.Controllers) {
				p.note(KindError, "recovery of unknown controller %d", j)
				p.PendingRecovered, _ = setDel(p.PendingRecovered, j)
				continue
			}
			switches = append(switches, p.ctx.Dep.Controllers[j].Domain...)
		}
		if len(switches) > 0 {
			p.next = effect{kind: effRestore, switches: switches}
			return
		}
		p.settle(false)
	case effRestore:
		p.restored(in)
	case effRehome:
		p.settle(true)
	case effPlan:
		p.planned(in)
	case effPush:
		p.pushed(in)
	case effAdopt:
		inst, out := p.next.inst, *p.next.out
		if in.err != nil {
			p.unconverged(fmt.Sprintf("adopting the %s mapping failed", inst.Label()), KindError,
				"adopt %s: %v", inst.Label(), in.err)
			return
		}
		out.UpdatedAt = p.at
		p.Snap = out
		p.note(KindConverged, "converged on %s: r=%d total=%d recovered=%d/%d",
			inst.Label(), out.MinProg, out.TotalProg, out.RecoveredFlows, out.OfflineFlows)
		p.next = effect{}
	case effStepDown:
		p.next = effect{}
	}
}

// restored takes the fail-back's report: each returned domain's switches
// leave the unreachable set, or join it if the push missed them. A domain back
// whole is restored: its controller leaves the pending set and re-takes the
// switches, which a recovery adopted after the revival may have handed away.
// Any other stays pending for the next pass to retry: a switch this push
// reached is sent only its claim again, one it missed what it still lacks,
// or its whole table if it may hold partial state.
func (p *pass) restored(in input) {
	if in.err != nil {
		p.note(KindError, "fail-back for controller(s) %v: %v", p.PendingRecovered, in.err)
		p.settle(true)
		return
	}
	rep := in.restored
	outs := make(map[topo.NodeID]sdnsim.SwitchOutcome, len(rep.Outcomes))
	for _, out := range rep.Outcomes {
		outs[out.Switch] = out
	}
	var whole []int
	for _, j := range p.PendingRecovered {
		mods, fulls, lost := 0, 0, 0
		for _, sw := range p.ctx.Dep.Controllers[j].Domain {
			mods += outs[sw].FlowModsAcked
			if outs[sw].Full {
				fulls++
			}
			if slices.Contains(rep.Failed, sw) {
				p.Unreachable = setAdd(p.Unreachable, sw)
				lost++
			} else {
				p.Unreachable, _ = setDel(p.Unreachable, sw)
			}
		}
		p.note(KindRestore, "controller %d returned: %d flow-mods restored to its domain, %d switch(es) asserted in full, %d unreachable",
			j, mods, fulls, lost)
		if lost == 0 {
			whole = append(whole, j)
			p.PendingRecovered, _ = setDel(p.PendingRecovered, j)
		}
	}
	p.Snap.Restores += len(whole)
	if len(whole) == 0 {
		p.settle(true)
		return
	}
	p.next = effect{kind: effRehome, ctrls: whole}
}

// settle goes on from the fail-back, if the pass made one (back): a failure
// set is compiled and planned, and an empty one ends the pass — ideal only
// once every returned domain is whole again.
func (p *pass) settle(back bool) {
	if len(p.Failed) > 0 {
		if inst, err := p.ctx.Build(p.Failed); err != nil {
			p.unconverged(fmt.Sprintf("failure set %v is unplannable", p.Failed), KindError, "compile %v: %v", p.Failed, err)
		} else {
			p.plan(inst, pushes{})
		}
		return
	}
	if len(p.PendingRecovered) > 0 {
		p.unconverged(fmt.Sprintf("fail-back of controller(s) %v incomplete", p.PendingRecovered), KindFailback,
			"all controllers back, fail-back of controller(s) %v incomplete: switch(es) %v unreachable; retried next pass",
			p.PendingRecovered, p.Unreachable)
		return
	}
	p.Unreachable = nil
	p.Snap = snapshot{Outcome: Outcome{Ideal: true, Converged: true, Restores: p.Snap.Restores}, UpdatedAt: p.at}
	if back {
		p.note(KindFailback, "all controllers back, ideal mapping restored")
	}
	p.next = effect{}
}

// plan asks for a plan of inst, after the pushes done: the residual around
// the switches already proven unreachable in this episode, else the solve.
func (p *pass) plan(inst *scenario.Instance, done pushes) {
	p.next = effect{kind: effPlan, inst: inst, done: done}
	for _, sw := range inst.Switches {
		if _, down := slices.BinarySearch(p.Unreachable, sw); down {
			if p.next.avoid == nil {
				p.next.avoid = make(map[topo.NodeID]bool, len(inst.Switches))
			}
			p.next.avoid[sw] = true
		}
	}
}

// planned takes a plan. A failed residual falls back to the whole-instance
// solve; a failed re-plan adopts what the pushes achieved instead, since a
// solve would map the dead switches again. A plan with newer events queued
// behind it is discarded unpushed: their pass plans again. In a re-plan's
// push, each switch the last push configured and the re-plan unmaps stays
// mapped with nothing active: cleared.
func (p *pass) planned(in input) {
	inst, avoid, done := p.next.inst, p.next.avoid, p.next.done
	switch {
	case in.err != nil && done.last != nil:
		p.note(KindError, "residual re-plan for %s: %v; keeping what was pushed", inst.Label(), in.err)
		p.adopt(inst, done)
		return
	case in.err != nil && avoid != nil:
		p.note(KindError, "residual for %s: %v", inst.Label(), in.err)
		p.next = effect{kind: effPlan, inst: inst}
		return
	case in.err != nil:
		p.unconverged(fmt.Sprintf("planning for %s failed", inst.Label()), KindError,
			"plan %s: %v", inst.Label(), in.err)
		return
	case avoid != nil:
		p.note(KindPlan, "residual re-plan for %s excludes %d unreachable switch(es)", inst.Label(), len(avoid))
	}
	if in.queued {
		p.note(KindStale, "plan for %s discarded, newer events queued", inst.Label())
		p.next = effect{}
		return
	}
	push := in.sol
	if done.last != nil {
		push = clone(in.sol)
		for i, j := range done.last.SwitchController {
			if push.SwitchController[i] < 0 {
				push.SwitchController[i] = j
			}
		}
	}
	p.next = effect{kind: effPush, inst: inst, sol: push, plan: in.sol, done: done}
}

// pushed takes a push's report. Switches it demoted that were not known
// unreachable join the set, and the instance is planned again around all of
// them, so a pass pushes at most once per switch plus once. A push that
// demotes nothing new ends the loop: what the pushes achieved is adopted.
func (p *pass) pushed(in input) {
	inst, rep, done := p.next.inst, in.pushed, p.next.done
	if in.err != nil {
		p.unconverged(fmt.Sprintf("push for %s failed", inst.Label()), KindError, "push %s: %v", inst.Label(), in.err)
		return
	}
	// A fenced push means a newer epoch — a newer leader — owns the switches
	// now. This daemon's view is stale: report, step down, and leave the
	// network to the claimant instead of fighting it.
	if n := fencedOutcomes(rep); n > 0 {
		p.unconverged(fmt.Sprintf("push for %s fenced by a newer generation", inst.Label()), KindFenced,
			"push %s refused by generation-ID fencing on %d switch(es); a newer leader owns the network", inst.Label(), n)
		p.next.kind = effStepDown
		return
	}
	p.note(KindPush, "pushed %s: %d flow-mods acked, %d switch(es) asserted in full, %d demoted",
		inst.Label(), rep.FlowModsAcked, fullAsserts(rep.Outcomes), len(rep.Demoted))
	done.n, done.acked = done.n+1, done.acked+rep.FlowModsAcked
	done.last = clone(p.next.plan)
	fresh := false
	for i, sw := range inst.Switches {
		if slices.Contains(rep.Demoted, sw) {
			fresh = fresh || !slices.Contains(p.Unreachable, sw)
			p.Unreachable = setAdd(p.Unreachable, sw)
			done.last.SwitchController[i] = -1
			lo, hi := inst.Problem.SwitchRun(i)
			clear(done.last.Active[lo:hi])
		}
	}
	if fresh {
		p.plan(inst, done)
		return
	}
	p.adopt(inst, done)
}

// adopt asks for what the pushes achieved to be adopted, flattened into the
// outcome first: the converged entry, stamped as the adopt returns, times it.
func (p *pass) adopt(inst *scenario.Instance, done pushes) {
	rep, err := inst.Evaluate(done.last)
	if err != nil {
		p.unconverged(fmt.Sprintf("the %s mapping pushed does not evaluate", inst.Label()), KindError, "evaluate %s: %v", inst.Label(), err)
		return
	}
	out := achievedSnapshot(inst, done, rep, p.Snap.Restores)
	p.next = effect{kind: effAdopt, inst: inst, sol: done.last, out: &out}
}

// clone copies a switch mapping: step writes into nothing it is handed.
func clone(sol *core.Solution) *core.Solution {
	c := *sol
	c.SwitchController, c.Active = slices.Clone(sol.SwitchController), slices.Clone(sol.Active)
	return &c
}

// achievedSnapshot flattens an adopted plan into the serializable reconciled
// state: the mapping table in instance switch order, per-flow achieved
// programmability by ascending flow ID, and the plan metrics. It runs between
// the push's return and the converged stamp, so it merges rather than sorts:
// inst.FlowIDs and inst.Unrecoverable are each ascending and disjoint (the
// scenario.Instance contract), and one pass over both orders every offline
// flow into a slice allocated once.
func achievedSnapshot(inst *scenario.Instance, done pushes, rep *core.Report, restores int) snapshot {
	s := snapshot{Label: inst.Label(), Outcome: Outcome{
		Converged:      true,
		Restores:       restores,
		MinProg:        rep.MinProg,
		TotalProg:      rep.TotalProg,
		RecoveredFlows: rep.RecoveredFlows,
		OfflineFlows:   inst.OfflineFlowCount(),
		PushRounds:     done.n,
		FlowModsAcked:  done.acked,
		Mapping:        make([]MappingEntry, len(inst.Switches)),
		FlowProg:       make([]FlowProg, 0, inst.OfflineFlowCount()),
	}}
	for i, jj := range done.last.SwitchController {
		s.Mapping[i] = MappingEntry{Switch: inst.Switches[i], Controller: -1}
		if jj >= 0 {
			s.Mapping[i].Controller = inst.Active[jj]
		}
	}
	lost := inst.Unrecoverable
	for l, id := range inst.FlowIDs {
		for len(lost) > 0 && lost[0] < id {
			s.FlowProg = append(s.FlowProg, FlowProg{Flow: lost[0]})
			lost = lost[1:]
		}
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: id, Prog: rep.FlowProg[l]})
	}
	for _, id := range lost {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: id})
	}
	return s
}

// fullAsserts counts the switches a push sent their whole table.
func fullAsserts(outs []sdnsim.SwitchOutcome) int {
	n := 0
	for i := range outs {
		if outs[i].Full {
			n++
		}
	}
	return n
}

// fencedOutcomes counts switches whose push generation-ID fencing refused.
func fencedOutcomes(rep *sdnsim.RecoveryReport) int {
	n := 0
	for i := range rep.Outcomes {
		if errors.Is(rep.Outcomes[i].Err, sdnsim.ErrFenced) {
			n++
		}
	}
	return n
}
