package core

import "fmt"

// Improve runs PM's final utilization pass as a standalone anytime refiner on
// an existing per-flow, switch-mapping solution: per-switch local moves
// (whole-switch rebalancing between controllers), pair fills in global
// p̄-descending order, and same-flow pair upgrades — all against the global
// programmability objective. The hierarchical planner ends in it after
// merging per-region solutions, where the cross-region moves it discovers are
// exactly the refinement a region-local solve cannot see.
//
// Every round is monotone: fills only add programmability, upgrades swap a
// flow's active pair for a strictly higher-p̄ one, and rebalancing moves a
// switch only when the move funds strictly more of its inactive pairs. A
// flow's programmability therefore never decreases, so neither objective term
// can worsen — the property TestImproveMonotonic pins.
//
// Improve runs at most rounds rounds, then unmaps every switch left without
// an active pair; rounds <= 0 validates and unmaps only. The budget is
// counted in rounds, not wall time, so a run is deterministic given the
// solution it starts from. Improve returns the number of rounds it ran.
// Starting from a quiescent PM solution it is a no-op (0 effective changes),
// which keeps the K=1 hierarchical solve byte-identical to flat PM.
func Improve(p *Problem, s *Solution, rounds int) (int, error) {
	if !p.finalized() {
		return 0, fmt.Errorf("%w: problem not finalized", ErrInvalidProblem)
	}
	if s.SwitchLevel || s.PairController != nil {
		return 0, fmt.Errorf("%w: Improve needs a per-flow switch-mapping solution", ErrInvalidProblem)
	}
	if len(s.SwitchController) != p.NumSwitches || len(s.Active) != len(p.Pairs) {
		return 0, fmt.Errorf("%w: solution shape does not match problem", ErrInfeasible)
	}

	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)

	// Reconstruct the residual capacity pmFlat's balancing loop ends with.
	rest := grabInts(&sc.rest, p.NumControllers)
	copy(rest, p.Rest)
	for k, pr := range p.Pairs {
		if s.Active[k] {
			j := s.SwitchController[pr.Switch]
			if j < 0 || j >= p.NumControllers {
				return 0, fmt.Errorf("%w: active pair %d at unmapped switch %d", ErrInfeasible, k, pr.Switch)
			}
			rest[j]--
		}
	}
	for j, r := range rest {
		if r < 0 {
			return 0, fmt.Errorf("%w: controller %d over capacity before improvement", ErrInfeasible, j)
		}
	}
	return refine(p, s, sc, rest, rounds), nil
}

// refine is Algorithm 1's final pass (lines 42–50), shared by pmFlat and
// Improve: each round fills inactive pairs in global p̄-descending order
// while their switch's controller has capacity — the order that maximizes
// obj₂ under scarcity, run before the rebalance so it sees true saturation —
// then rebalances whole switches and upgrades same-flow pairs, until a round
// changes nothing or rounds run out. It then unmaps idle switches. rest is
// the residual capacity matching s, updated in place; refine returns the
// number of rounds run.
//
// The pass is incremental, and exactly equal to rescanning everything each
// round (TestRefineMatchesReference): the per-switch activated/inactive
// counts are kept through fills and swaps (a rebalance moves whole switches
// and changes neither); a fill is skipped when no switch with an inactive
// pair is mapped to a controller with capacity, which is exactly when it
// would fund nothing; and upgrade rescans only stale flows (see upgrade).
//
// Unmapped switches stay unmapped: PM only leaves a switch unmapped after
// proving no controller can fund any of its pairs, and re-mapping one here
// would open upgrade swaps PM's own configuration never saw — breaking the
// Improve-is-a-no-op-after-PM property. Adopting stranded switches across
// capacity boundaries is the hierarchical coordinator's job.
func refine(p *Problem, s *Solution, sc *solverScratch, rest []int, rounds int) int {
	activated := grabInts(&sc.activated, p.NumSwitches)
	inactive := grabInts(&sc.inactiveCnt, p.NumSwitches)
	for k, pr := range p.Pairs {
		if s.Active[k] {
			activated[pr.Switch]++
		} else {
			inactive[pr.Switch]++
		}
	}
	stale := growSlice(&sc.stale, p.NumFlows)
	for l := range stale {
		stale[l] = true
	}
	byPBar := pairsByPBarDesc(p, sc)
	n := 0
	for ; n < rounds; n++ {
		filled := false
		if fillable(s, rest, inactive) {
			for _, k := range byPBar {
				if s.Active[k] {
					continue
				}
				i := p.Pairs[k].Switch
				j0 := s.SwitchController[i]
				if j0 >= 0 && rest[j0] > 0 {
					rest[j0]--
					activated[i]++
					inactive[i]--
					stale[p.Pairs[k].Flow] = true
					s.Active[k] = true
					filled = true
				}
			}
		}
		moved := rebalanceCore(p, s, rest, activated, inactive)
		upgraded := upgrade(p, s, rest, activated, inactive, stale)
		if !filled && !moved && !upgraded {
			n++
			break
		}
	}
	s.UnmapIdle(p)
	return n
}

// fillable reports whether a fill would fund anything: some switch with an
// inactive pair is mapped to a controller with capacity left.
func fillable(s *Solution, rest, inactive []int) bool {
	for i, j := range s.SwitchController {
		if j >= 0 && inactive[i] > 0 && rest[j] > 0 {
			return true
		}
	}
	return false
}
