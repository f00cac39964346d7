package core

import (
	"fmt"
	"slices"
)

// balanceFlatReference is balanceFlat without its two exact cuts: it runs all
// TotalIterations sweeps and scans and sorts the floor pairs of every
// selected switch, dry controller or not (the sort a stable comparison sort
// in place of the counting sort). It returns the residual capacity
// and the number of sweeps that activated no pair — the sweeps balanceFlat
// skips. It is the oracle TestBalanceMatchesReference pins balanceFlat to.
func balanceFlatReference(p *Problem, s *Solution, sc *solverScratch) (rest []int, noOpSweeps int) {
	rest = slices.Clone(p.Rest)
	h := make([]int, p.NumFlows)
	alternatives := make([]int, p.NumFlows)
	for l := range alternatives {
		alternatives[l] = len(p.PairsOfFlow(l))
	}
	inTestSet := make([]bool, p.NumSwitches)
	floorPairs := make([]int, p.NumSwitches)
	sigma, testCount, remaining, activated := 0, 0, 0, 0
	grabInts(&sc.nearestBuf, p.NumSwitches*p.NumControllers)
	grabBools(&sc.nearestSet, p.NumSwitches)

	nextSweep := func() {
		for i := range inTestSet {
			inTestSet[i] = true
		}
		remaining = p.NumSwitches
		sigma = 0
		if len(h) > 0 {
			sigma = slices.Min(h)
		}
		clear(floorPairs)
		for _, pr := range p.Pairs {
			if h[pr.Flow] == sigma {
				floorPairs[pr.Switch]++
			}
		}
	}
	endSweep := func() {
		testCount++
		if activated == 0 {
			noOpSweeps++
		}
		activated = 0
		nextSweep()
	}
	nextSweep()
	for testCount < p.TotalIterations {
		delta, i0 := 0, -1
		for i := 0; i < p.NumSwitches; i++ {
			if inTestSet[i] && floorPairs[i] > delta {
				delta, i0 = floorPairs[i], i
			}
		}
		if i0 < 0 {
			endSweep()
			continue
		}
		j0 := s.SwitchController[i0]
		if j0 < 0 {
			j0 = mapSwitchPM(p, sc, rest, i0)
			s.SwitchController[i0] = j0
		}
		inTestSet[i0] = false
		remaining--

		var floor []int
		for k, hi := p.SwitchRun(i0); k < hi; k++ {
			if !s.Active[k] && h[p.Pairs[k].Flow] <= sigma {
				floor = append(floor, k)
			}
		}
		slices.SortStableFunc(floor, func(a, b int) int {
			return alternatives[p.Pairs[a].Flow] - alternatives[p.Pairs[b].Flow]
		})
		for _, k := range floor {
			if rest[j0] <= 0 {
				break
			}
			l := p.Pairs[k].Flow
			if h[l] > sigma {
				continue
			}
			if h[l] == sigma {
				for _, kk := range p.PairsOfFlow(l) {
					floorPairs[p.Pairs[kk].Switch]--
				}
			}
			rest[j0]--
			h[l] += p.Pairs[k].PBar
			alternatives[l]--
			s.Active[k] = true
			activated++
		}
		if remaining == 0 {
			endSweep()
		}
	}

	for i := 0; i < p.NumSwitches; i++ {
		if s.SwitchController[i] >= 0 || p.EligiblePairCount(i) == 0 {
			continue
		}
		s.SwitchController[i] = mapLeftoverSwitch(p, sc, rest, i)
	}
	return rest, noOpSweeps
}

// balanceVsReference runs balanceFlat and its all-sweeps reference on p and
// reports any difference in the Solution or the residual capacity, and how
// many no-op sweeps the reference ran.
func balanceVsReference(p *Problem) (noOpSweeps int, err error) {
	sc := new(solverScratch)
	got := NewSolution("PM", p)
	rest := slices.Clone(balanceFlat(p, got, sc))
	want := NewSolution("PM", p)
	wantRest, noOpSweeps := balanceFlatReference(p, want, sc)
	if !slices.Equal(rest, wantRest) {
		return noOpSweeps, fmt.Errorf("residual capacity %v, the reference %v", rest, wantRest)
	}
	return noOpSweeps, solutionDiff(got, want)
}
