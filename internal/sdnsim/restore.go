package sdnsim

import (
	"sort"
	"sync/atomic"

	"pmedic/internal/flow"
	"pmedic/internal/par"
	"pmedic/internal/topo"
)

// RestoreReport is the structured result of a fail-back push.
type RestoreReport struct {
	// Outcomes has one entry per requested switch, in input order.
	Outcomes []SwitchOutcome
	// FlowModsAcked totals the acknowledged flow-mods.
	FlowModsAcked int
	// Failed lists switches that stayed unreachable through every retry,
	// ascending. Their tables may be missing entries a recovery removed.
	Failed []topo.NodeID
}

// RestoreIdeal pushes the steady-state (ideal) configuration back to the
// given switches: for every flow traversing a switch, a FlowAdd re-asserting
// the flow's original next hop there. It is the fail-back counterpart of
// PushRecoveryResilient — after a failed controller returns and re-takes its
// domain, the entries that recovery demoted to legacy mode must be
// reinstalled before the flows are SDN-routed (and programmable) again.
//
// Delivery reuses the resilient driver's machinery: concurrent pushes, role
// claim under opts.GenerationID, capped backoff with seeded jitter, and a
// barrier per switch. Pass a GenerationID above the one the recovery pushes
// used (the medic derives both from its epoch counter) so the fail-back
// claim supersedes, not collides with, the recovery's mastership; the driver
// still resynchronizes automatically if an agent reports a stale claim.
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
		sp := switchPush{index: i, sw: swID}
		// The switch→flows index lists every flow through swID; the flow's
		// destination holds no entry for it.
		for _, e := range flows.Through(swID) {
			if f := &flows.Flows[e.Flow]; f.Dst != swID {
				sp.mods = append(sp.mods, addMod(f, swID))
			}
		}
		if len(sp.mods) > 0 {
			work = append(work, sp)
		}
	}

	gen := atomic.Uint64{}
	gen.Store(opts.GenerationID)
	par.For(len(work), pushConcurrency, func(i int) {
		sp := work[i]
		acked, _, err := pushSwitch(addrs, sp, &gen, opts)
		out := &rep.Outcomes[sp.index]
		out.Attempts = acked.attempts
		out.Elapsed = acked.elapsed
		if err != nil {
			out.Status = PushDemoted
			out.Err = err
			return
		}
		out.Status = PushApplied
		out.FlowModsAcked = acked.mods
	})
	for i := range rep.Outcomes {
		rep.FlowModsAcked += rep.Outcomes[i].FlowModsAcked
		if rep.Outcomes[i].Status == PushDemoted {
			rep.Failed = append(rep.Failed, rep.Outcomes[i].Switch)
		}
	}
	sort.Slice(rep.Failed, func(a, b int) bool { return rep.Failed[a] < rep.Failed[b] })
	return rep, nil
}
