package sdnsim

import (
	"errors"
	"fmt"
	"sort"

	"pmedic/internal/topo"
)

// ErrFenced reports a wire operation refused by OpenFlow generation-ID
// fencing: the switch has already accepted a claim from a newer epoch (a
// newer leader), and honoring this one would hand the switch back to a
// deposed controller.
var ErrFenced = errors.New("sdnsim: fenced by a newer generation")

// FenceResult reports one agent's response to a fencing sweep.
type FenceResult struct {
	Switch topo.NodeID
	// Fenced is true when the agent accepted the claim (its generation is
	// now at least the asserted one).
	Fenced bool
	Err    error
}

// FenceAgents stamps gen onto every agent as a Master claim, in switch
// order, as one round of the push driver (pushRound) with no flow-mods, one
// attempt per switch (two when the first only found a standby session dead)
// and gen as the generation limit; the sweep's channels are left standing by
// in opts.Sessions for the pushes that follow. A freshly elected leader calls
// it with the bottom of its first epoch's generation range before
// reconciling: once the sweep returns, any in-flight push signed by a lower
// generation — the deposed leader's — is refused by the agents
// (ErrCodeRoleStale on the wire, ErrFenced in the driver).
//
// fenced counts the agents that accepted. An agent that reports the claim
// itself as stale (its generation is already higher) yields ErrFenced for
// that switch — the caller has itself been superseded. Unreachable agents
// yield their dial errors; the sweep continues past them, since fencing an
// agent nobody can reach is moot.
func FenceAgents(addrs map[topo.NodeID]string, gen uint64, opts PushOptions) (fenced int, results []FenceResult, err error) {
	opts = opts.withDefaults()
	opts.MaxAttempts, opts.GenerationID, opts.GenerationLimit = 1, gen, gen
	work := make([]switchPush, 0, len(addrs))
	for sw := range addrs {
		work = append(work, switchPush{sw: sw})
	}
	sort.Slice(work, func(a, b int) bool { return work[a].sw < work[b].sw })
	outs := make([]SwitchOutcome, len(work))
	for i := range work {
		work[i].index = i
	}
	pushRound(addrs, work, opts, outs)

	results = make([]FenceResult, len(work))
	for i, out := range outs {
		results[i] = FenceResult{Switch: work[i].sw, Fenced: out.Err == nil, Err: out.Err}
		if out.Err == nil {
			fenced++
		} else if err == nil {
			err = fmt.Errorf("switch %d: %w", work[i].sw, out.Err)
		}
	}
	return fenced, results, err
}
