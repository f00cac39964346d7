package planstore

import (
	"fmt"
	"sync"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// Pinned by benchmark/storeatt.go's consult stream (`planstore.fallback_us`,
// `planstore.fallbacks`): Consult, Project, Superset and OutcomeFallback have
// no other caller — the daemon serves Exact + Decode or solves — and go with
// those probes in the housekeeping `benchmark` PR.

// transPool recycles Project's controller-translation scratch, so a
// superset projection allocates no deployment-sized slice per call.
var transPool = sync.Pool{New: func() any { return new([]int) }}

// Project translates a plan compiled for a superset failure (sup.Failed ⊇
// inst.Failed) onto the smaller failure's instance. Every structure of inst
// embeds into sup — fewer failed controllers means fewer offline switches
// and flows, and every controller active under sup is active under inst —
// so the translation is three two-pointer merges over the instances'
// ascending index spaces, no search.
//
// The projection is always feasible on inst: residual capacities are
// failure-independent per controller (capacity minus pre-failure domain
// load), and the projected load on each controller is at most what the
// superset plan already charged it. It is merely conservative — it ignores
// the controllers that are actually alive — which is what the residual
// repair step recovers.
func Project(sup *scenario.Instance, supSol *core.Solution, inst *scenario.Instance) (*core.Solution, error) {
	if supSol.PairController != nil {
		return nil, fmt.Errorf("planstore: cannot project flow-mapping solution %q", supSol.Algorithm)
	}
	supKey, ok1 := KeyOf(sup.Failed)
	key, ok2 := KeyOf(inst.Failed)
	if !ok1 || !ok2 || supKey&key != key || supKey == key {
		return nil, fmt.Errorf("%w: %v is not a strict superset of %v", ErrMismatch, sup.Failed, inst.Failed)
	}
	sp, ip := sup.Problem, inst.Problem

	// Deployment controller index → inst problem controller index. The
	// mapping is pure per-call scratch (nothing retained by the returned
	// solution aliases it), so it comes from the pool.
	transBuf := transPool.Get().(*[]int)
	defer transPool.Put(transBuf)
	if cap(*transBuf) < len(inst.Dep.Controllers) {
		*transBuf = make([]int, len(inst.Dep.Controllers))
	}
	trans := (*transBuf)[:len(inst.Dep.Controllers)]
	for j := range trans {
		trans[j] = -1
	}
	for jj, j := range inst.Active {
		trans[j] = jj
	}

	out := core.NewSolution(supSol.Algorithm, ip)
	out.SwitchLevel = supSol.SwitchLevel
	out.MiddleLayer = supSol.MiddleLayer
	si := 0
	for i, sw := range inst.Switches {
		for si < len(sup.Switches) && sup.Switches[si] < sw {
			si++
		}
		if si >= len(sup.Switches) || sup.Switches[si] != sw {
			return nil, fmt.Errorf("%w: switch %d offline under %v but not under %v", ErrMismatch, sw, inst.Failed, sup.Failed)
		}
		if j := supSol.SwitchController[si]; j >= 0 {
			jj := trans[sup.Active[j]]
			if jj < 0 {
				return nil, fmt.Errorf("%w: superset plan maps switch %d to failed controller %d", ErrMismatch, sw, sup.Active[j])
			}
			out.SwitchController[i] = jj
		}
		// Pairs at a switch are ascending in flow index, and flow indices
		// follow ascending flow IDs in both instances: one merge per switch.
		t, supHi := sp.SwitchRun(si)
		for k, hi := ip.SwitchRun(i); k < hi; k++ {
			fid := inst.FlowIDs[ip.Pairs[k].Flow]
			for t < supHi && sup.FlowIDs[sp.Pairs[t].Flow] < fid {
				t++
			}
			if t >= supHi || sup.FlowIDs[sp.Pairs[t].Flow] != fid {
				return nil, fmt.Errorf("%w: pair (switch %d, flow %d) missing from superset instance", ErrMismatch, sw, fid)
			}
			out.Active[k] = supSol.Active[t]
		}
	}
	return out, nil
}

// repairProjected improves a projected plan with the capacity it left on the
// table: switches the superset plan never mapped get a residual re-plan
// (Instance.SolveResidual, the same machinery a recovery push uses after
// demoting unreachable switches, here demoting the mapped ones) against the
// residual capacities minus what the projection already charged, and the two
// plans merge disjointly. The merged plan stays feasible: projected loads fit
// within Rest, and the repair solve only spends what the reduction left.
func repairProjected(inst *scenario.Instance, proj *core.Solution, solve func(*core.Problem) (*core.Solution, error)) (*core.Solution, error) {
	demoted := make(map[topo.NodeID]bool)
	for i, j := range proj.SwitchController {
		if j >= 0 {
			demoted[inst.Switches[i]] = true
		}
	}
	if len(demoted) == len(inst.Switches) {
		return proj, nil
	}
	loads, err := proj.ControllerLoads(inst.Problem)
	if err != nil {
		return nil, fmt.Errorf("planstore: fallback repair: %w", err)
	}
	rsol, err := inst.SolveResidual(demoted, func(r *core.Problem) (*core.Solution, error) {
		for j, l := range loads {
			r.Rest[j] -= l
		}
		return solve(r)
	})
	if err != nil {
		return nil, fmt.Errorf("planstore: fallback repair: %w", err)
	}
	for i, j := range rsol.SwitchController {
		if j >= 0 && proj.SwitchController[i] < 0 {
			proj.SwitchController[i] = j
		}
	}
	for k, on := range rsol.Active {
		if on {
			proj.Active[k] = true
		}
	}
	return proj, nil
}

// Outcome classifies how Consult served (or declined) a plan request.
type Outcome int

const (
	// OutcomeMiss: the store has nothing usable; the caller should solve.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the exact failure set was precompiled.
	OutcomeHit
	// OutcomeFallback: a superset plan was projected and repaired.
	OutcomeFallback
)

// String names the outcome for logs and metrics.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeFallback:
		return "fallback"
	default:
		return "miss"
	}
}

// Consult serves the exact precompiled plan if the failure set was swept,
// otherwise projects the nearest superset plan and repairs its unmapped
// switches with solve, and reports a miss when neither exists. Every error
// is returned alongside OutcomeMiss. The daemon does not call it: a
// projected plan is slower than a fresh solve and can be worse.
func (st *Store) Consult(sctx *scenario.Context, inst *scenario.Instance, solve func(*core.Problem) (*core.Solution, error)) (*core.Solution, Outcome, error) {
	start := time.Now()
	if rec, ok := st.Exact(inst.Failed); ok {
		sol, err := st.Decode(rec, inst)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		sol.Runtime = time.Since(start)
		return sol, OutcomeHit, nil
	}
	rec, ok := st.Superset(inst.Failed)
	if !ok {
		return nil, OutcomeMiss, nil
	}
	sup, err := sctx.Build(rec.FailedSet())
	if err != nil {
		return nil, OutcomeMiss, fmt.Errorf("planstore: fallback: %w", err)
	}
	supSol, err := st.Decode(rec, sup)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	proj, err := Project(sup, supSol, inst)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	sol, err := repairProjected(inst, proj, solve)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	sol.Runtime = time.Since(start)
	return sol, OutcomeFallback, nil
}
