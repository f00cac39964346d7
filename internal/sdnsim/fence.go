package sdnsim

import (
	"errors"
	"fmt"
	"sort"

	"pmedic/internal/par"
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
// order with opts.Concurrency workers. A freshly elected leader calls it
// with the bottom of its first epoch's generation range before reconciling:
// once the sweep returns, any in-flight push signed by a lower generation —
// the deposed leader's — is refused by the agents (ErrCodeRoleStale on the
// wire, ErrFenced in the driver).
//
// fenced counts the agents that accepted. An agent that reports the claim
// itself as stale (its generation is already higher) yields ErrFenced for
// that switch — the caller has itself been superseded. Unreachable agents
// yield their dial errors; the sweep continues past them, since fencing an
// agent nobody can reach is moot.
func FenceAgents(addrs map[topo.NodeID]string, gen uint64, opts PushOptions) (fenced int, results []FenceResult, err error) {
	opts = opts.withDefaults()
	switches := make([]topo.NodeID, 0, len(addrs))
	for sw := range addrs {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(a, b int) bool { return switches[a] < switches[b] })

	results = make([]FenceResult, len(switches))
	par.For(len(switches), opts.Concurrency, func(_, i int) {
		results[i] = fenceOne(opts, addrs[switches[i]], switches[i], gen)
	})

	var firstErr error
	for _, r := range results {
		if r.Fenced {
			fenced++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("switch %d: %w", r.Switch, r.Err)
		}
	}
	return fenced, results, firstErr
}

// fenceOne claims mastership at gen on one agent: a push session with no
// flow-mods, tried once (twice when the first try only found a standby
// session dead), so the sweep leaves its sessions standing by in
// opts.Sessions for the pushes that follow.
func fenceOne(opts PushOptions, addr string, sw topo.NodeID, gen uint64) FenceResult {
	_, _, lost, err := pushOnce(opts, addr, gen, nil)
	if lost {
		_, _, _, err = pushOnce(opts, addr, gen, nil)
	}
	if g, ok := staleGeneration(err); ok {
		err = fmt.Errorf("%w: switch %d holds generation %d, asserted %d", ErrFenced, sw, g, gen)
	}
	return FenceResult{Switch: sw, Fenced: err == nil, Err: err}
}
