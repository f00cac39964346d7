package core

import (
	"fmt"
	"slices"
)

// refineReference is refine without its incremental bookkeeping: every round
// scans all pairs to fill, recounts the per-switch pair counts for the
// rebalance and rescans every flow for upgrades. It is the oracle
// TestRefineMatchesReference pins refine, and so pmFlat and Improve, to.
func refineReference(p *Problem, s *Solution, sc *solverScratch, rest []int, rounds int) int {
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
				rest[j0]--
				s.Active[k] = true
				filled = true
			}
		}
		moved := rebalanceFlatReference(p, s, sc, rest)
		upgraded := upgradeReference(p, s, rest)
		if !filled && !moved && !upgraded {
			n++
			break
		}
	}
	s.UnmapIdle(p)
	return n
}

// rebalanceFlatReference counts per-switch activated/inactive pairs from the
// solution and runs the rebalancing loop.
func rebalanceFlatReference(p *Problem, s *Solution, sc *solverScratch, rest []int) bool {
	activated := grabInts(&sc.activated, p.NumSwitches)
	inactive := grabInts(&sc.inactiveCnt, p.NumSwitches)
	for k, pr := range p.Pairs {
		if s.Active[k] {
			activated[pr.Switch]++
		} else {
			inactive[pr.Switch]++
		}
	}
	return rebalanceCore(p, s, rest, activated, inactive)
}

// upgradeReference is upgrade scanning every flow.
func upgradeReference(p *Problem, s *Solution, rest []int) bool {
	changed := false
	for l := 0; l < p.NumFlows; l++ {
		ks := p.PairsOfFlow(l)
		for {
			worst, best := -1, -1
			for _, k := range ks {
				if s.Active[k] {
					if worst < 0 || p.Pairs[k].PBar < p.Pairs[worst].PBar {
						worst = k
					}
					continue
				}
				if s.SwitchController[p.Pairs[k].Switch] < 0 {
					continue
				}
				if best < 0 || p.Pairs[k].PBar > p.Pairs[best].PBar {
					best = k
				}
			}
			if worst < 0 || best < 0 || p.Pairs[best].PBar <= p.Pairs[worst].PBar {
				break
			}
			jOld := s.SwitchController[p.Pairs[worst].Switch]
			jNew := s.SwitchController[p.Pairs[best].Switch]
			if jNew != jOld && rest[jNew] <= 0 {
				break
			}
			s.Active[worst] = false
			rest[jOld]++
			s.Active[best] = true
			rest[jNew]--
			changed = true
		}
	}
	return changed
}

// pmFlatVsReference runs pmFlat's balancing loop on p, finishes one copy of
// its state with refine and another with refineReference, and reports any
// difference in the Solution, the residual capacity or the round count.
func pmFlatVsReference(p *Problem) error {
	sc := new(solverScratch)
	s := NewSolution("PM", p)
	rest := balanceFlat(p, s, sc)
	return refineVsReference(p, s, sc, rest, finalPassRounds)
}

// improveVsReference runs Improve on a copy of s and refineReference, from
// the residual capacity s leaves, on another, and reports any difference.
func improveVsReference(p *Problem, s *Solution, rounds int) error {
	got := cloneSolution(s)
	n, err := Improve(p, got, rounds)
	if err != nil {
		return err
	}
	want := cloneSolution(s)
	rest := slices.Clone(p.Rest)
	for k, pr := range p.Pairs {
		if want.Active[k] {
			rest[want.SwitchController[pr.Switch]]--
		}
	}
	if m := refineReference(p, want, new(solverScratch), rest, rounds); n != m {
		return fmt.Errorf("Improve ran %d rounds, the reference %d", n, m)
	}
	return solutionDiff(got, want)
}

func refineVsReference(p *Problem, s *Solution, sc *solverScratch, rest []int, rounds int) error {
	want, wantRest := cloneSolution(s), slices.Clone(rest)
	n := refine(p, s, sc, rest, rounds)
	if m := refineReference(p, want, sc, wantRest, rounds); n != m {
		return fmt.Errorf("refine ran %d rounds, the reference %d", n, m)
	}
	if !slices.Equal(rest, wantRest) {
		return fmt.Errorf("residual capacity %v, the reference %v", rest, wantRest)
	}
	return solutionDiff(s, want)
}

func cloneSolution(s *Solution) *Solution {
	c := *s
	c.SwitchController = slices.Clone(s.SwitchController)
	c.Active = slices.Clone(s.Active)
	return &c
}

// solutionDiff names the first switch mapping or pair state where got and
// want differ.
func solutionDiff(got, want *Solution) error {
	for i, j := range got.SwitchController {
		if j != want.SwitchController[i] {
			return fmt.Errorf("switch %d on controller %d, the reference %d", i, j, want.SwitchController[i])
		}
	}
	for k, on := range got.Active {
		if on != want.Active[k] {
			return fmt.Errorf("pair %d active = %v, the reference %v", k, on, want.Active[k])
		}
	}
	return nil
}
