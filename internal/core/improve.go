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

	// Reconstruct the solver-internal state pmFlat's balancing loop ends
	// with: residual capacity, per-flow programmability, and per-flow
	// inactive-pair counts.
	rest := grabInts(&sc.rest, p.NumControllers)
	copy(rest, p.Rest)
	h := grabInts(&sc.h, p.NumFlows)
	alternatives := grabInts(&sc.alternatives, p.NumFlows)
	for k, pr := range p.Pairs {
		if s.Active[k] {
			j := s.SwitchController[pr.Switch]
			if j < 0 || j >= p.NumControllers {
				return 0, fmt.Errorf("%w: active pair %d at unmapped switch %d", ErrInfeasible, k, pr.Switch)
			}
			rest[j]--
			h[pr.Flow] += pr.PBar
		} else {
			alternatives[pr.Flow]++
		}
	}
	for j, r := range rest {
		if r < 0 {
			return 0, fmt.Errorf("%w: controller %d over capacity before improvement", ErrInfeasible, j)
		}
	}
	return refine(p, s, sc, rest, h, alternatives, rounds), nil
}

// refine is Algorithm 1's final pass (lines 42–50), shared by pmFlat and
// Improve: each round fills inactive pairs in global p̄-descending order
// while their switch's controller has capacity — the order that maximizes
// obj₂ under scarcity, run before the rebalance so it sees true saturation —
// then rebalances whole switches and upgrades same-flow pairs, until a round
// changes nothing or rounds run out. It then unmaps idle switches. rest, h
// and alternatives are the solver state matching s, updated in place; it
// returns the number of rounds run.
//
// Unmapped switches stay unmapped: PM only leaves a switch unmapped after
// proving no controller can fund any of its pairs, and re-mapping one here
// would open upgrade swaps PM's own configuration never saw — breaking the
// Improve-is-a-no-op-after-PM property. Adopting stranded switches across
// capacity boundaries is the hierarchical coordinator's job.
func refine(p *Problem, s *Solution, sc *solverScratch, rest, h, alternatives []int, rounds int) int {
	byPBar := pairsByPBarDesc(p, sc)
	n := 0
	for ; n < rounds; n++ {
		filled := false
		for _, k := range byPBar {
			if s.Active[k] {
				continue
			}
			j0 := s.SwitchController[p.Pairs[k].Switch]
			if j0 >= 0 && rest[j0] > 0 {
				l := p.Pairs[k].Flow
				rest[j0]--
				h[l] += p.Pairs[k].PBar
				alternatives[l]--
				s.Active[k] = true
				filled = true
			}
		}
		moved := rebalanceFlat(p, s, sc, rest)
		upgraded := upgrade(p, s, rest, h, alternatives)
		if !filled && !moved && !upgraded {
			n++
			break
		}
	}
	s.UnmapIdle(p)
	return n
}
