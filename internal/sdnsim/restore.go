package sdnsim

import (
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// RestoreReport is the structured result of a fail-back push.
type RestoreReport struct {
	// Outcomes has one entry per requested switch, in input order.
	Outcomes []SwitchOutcome
	// FlowModsAcked totals the acknowledged flow-mods.
	FlowModsAcked int
	// Failed lists switches that stayed unreachable through every retry,
	// ascending. Their tables may be missing entries a recovery removed;
	// the standby set keeps its record of them, unless the push left them
	// Dirty, so the next fail-back sends what is still missing.
	Failed []topo.NodeID
}

// RestoreIdeal pushes the steady-state (ideal) configuration back to the
// given switches (restoreMods): a FlowAdd of the steady-state entry of every
// flow traversing a switch opts.Sessions cannot vouch for, and of only those
// a recovery deleted where it can; a vouched switch with nothing to re-add is
// still sent its claim and barrier, the liveness proof. It is the fail-back
// counterpart of PushRecoveryResilient — after a failed controller returns
// and re-takes its domain, the entries that recovery demoted to legacy mode
// must be reinstalled before the flows are SDN-routed (and programmable)
// again.
//
// Delivery is the recovery driver's one wire round (pushRound): concurrent
// pushes, role claim under opts.GenerationID, capped backoff with seeded
// jitter, and a barrier per switch. Pass a GenerationID above the one the
// recovery pushes used (the medic derives both from its epoch counter) so the
// fail-back claim supersedes, not collides with, the recovery's mastership;
// the driver still resynchronizes automatically if an agent reports a stale
// claim.
// Unreachable switches are reported in Failed, never as an error.
func RestoreIdeal(
	addrs map[topo.NodeID]string,
	flows *flow.Set,
	switches []topo.NodeID,
	opts PushOptions,
) (*RestoreReport, error) {
	opts = opts.withDefaults()
	rep := &RestoreReport{Outcomes: make([]SwitchOutcome, len(switches))}

	var work []switchPush
	for i, swID := range switches {
		rep.Outcomes[i] = SwitchOutcome{Switch: swID, Index: i, Status: PushLegacyPlanned}
		sp := switchPush{index: i, sw: swID, vouches: true, build: func(t *table) []openflow.FlowMod {
			return restoreMods(flows, swID, t)
		}}
		sp.against(opts.Sessions)
		// A switch no flow traverses has no table to restore; the set never
		// vouches for one.
		if sp.diff || len(sp.mods) > 0 {
			work = append(work, sp)
		}
	}
	rep.FlowModsAcked, rep.Failed = pushRound(addrs, work, opts, rep.Outcomes)
	return rep, nil
}

// restoreMods is the fail-back of sw: a FlowAdd of the steady-state entry of
// every flow through it, or, given t, of each flow whose entry t records as
// deleted.
func restoreMods(flows *flow.Set, sw topo.NodeID, t *table) []openflow.FlowMod {
	var mods []openflow.FlowMod
	if t != nil {
		for _, id := range t.deleted {
			mods = append(mods, addMod(&flows.Flows[id], sw))
		}
		return mods
	}
	// The switch→flows index lists every flow through sw; the flow's
	// destination holds no entry for it.
	for _, e := range flows.Through(sw) {
		if f := &flows.Flows[e.Flow]; f.Dst != sw {
			mods = append(mods, addMod(f, sw))
		}
	}
	return mods
}
