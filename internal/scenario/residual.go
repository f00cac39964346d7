package scenario

import (
	"fmt"

	"pmedic/internal/core"
	"pmedic/internal/topo"
)

// Residual compiles the instance that remains after demoting the given
// offline switches to legacy mode for good — what the medic's reconcile pass
// plans once switches have proven unreachable over the control channel, in
// the pass whose push demoted them and in the episode's later passes. The
// returned problem keeps the original switch, controller, and
// flow index spaces (so solutions translate positionally), but:
//
//   - every eligible pair at a demoted switch is removed, making the switch
//     worthless to map (solvers leave it unmapped and its flows fall back to
//     whatever programmability their other pairs can fund);
//   - the demoted switches' γ is zeroed, so whole-switch capacity prechecks
//     and the ideal delay budget no longer account flows that cannot be
//     re-homed there.
//
// pairMap translates pair indices: pairMap[k] is the index in the original
// problem's Pairs of the residual problem's Pairs[k].
func (inst *Instance) Residual(demoted map[topo.NodeID]bool) (*core.Problem, []int, error) {
	p := inst.Problem
	r := &core.Problem{
		NumSwitches:    p.NumSwitches,
		NumControllers: p.NumControllers,
		NumFlows:       p.NumFlows,
		Rest:           append([]int(nil), p.Rest...),
		Gamma:          append([]int(nil), p.Gamma...),
		Delay:          append([][]float64(nil), p.Delay...), // rows shared, read-only
		Lambda:         p.Lambda,
	}
	excluded := make([]bool, p.NumSwitches)
	for i, sw := range inst.Switches {
		if demoted[sw] {
			excluded[i] = true
			r.Gamma[i] = 0
		}
	}
	// One counting pass sizes both retained slices exactly — a demotion
	// re-plan runs on the recovery's critical path, so the append-grow churn
	// of the naive loop is worth avoiding.
	kept := 0
	for _, pr := range p.Pairs {
		if !excluded[pr.Switch] {
			kept++
		}
	}
	r.Pairs = make([]core.Pair, 0, kept)
	pairMap := make([]int, 0, kept)
	for k, pr := range p.Pairs {
		if excluded[pr.Switch] {
			continue
		}
		r.Pairs = append(r.Pairs, pr)
		pairMap = append(pairMap, k)
	}
	if err := r.Finalize(); err != nil {
		return nil, nil, fmt.Errorf("scenario: residual instance: %w", err)
	}
	r.BudgetMs = r.IdealDelayBudget()
	return r, pairMap, nil
}

// SolveResidual re-plans the instance around the demoted switches: it solves
// the Residual problem with solve and returns the plan in the instance's own
// index spaces — a solution over inst.Problem (named after the solver's, plus
// "+residual") carrying the residual's switch mapping and its active pairs
// translated through pairMap. The demoted switches come back unmapped. The
// re-plan is a switch mapping: a flow-mapping solution from solve is an
// error.
func (inst *Instance) SolveResidual(demoted map[topo.NodeID]bool, solve func(*core.Problem) (*core.Solution, error)) (*core.Solution, error) {
	rp, pairMap, err := inst.Residual(demoted)
	if err != nil {
		return nil, err
	}
	rsol, err := solve(rp)
	if err != nil {
		return nil, err
	}
	if rsol.PairController != nil {
		return nil, fmt.Errorf("scenario: residual re-plan produced flow-mapping solution %q", rsol.Algorithm)
	}
	sol := core.NewSolution(rsol.Algorithm+"+residual", inst.Problem)
	copy(sol.SwitchController, rsol.SwitchController)
	for k, on := range rsol.Active {
		if on {
			sol.Active[pairMap[k]] = true
		}
	}
	return sol, nil
}
