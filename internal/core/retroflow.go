package core

import (
	"fmt"
	"time"
)

// RetroFlow re-implements the switch-level baseline of Guo et al.
// (IEEE/ACM IWQoS'19): offline switches either stay in legacy mode or are
// remapped — whole — to an active controller, costing the controller the
// switch's full flow load γ_i. Every flow traversing a remapped switch is
// controlled there, so all eligible pairs at remapped switches become active.
//
// The selection is the greedy the original paper's evaluation behaviour
// implies: a coverage phase picks, by uncovered-flow density (uncovered flows
// per unit of γ), switches that newly recover flows and assigns each to the
// nearest controller that can absorb γ_i; a utilization phase then keeps
// remapping remaining switches by programmability density while any
// controller still fits them. Switches whose γ_i exceeds every controller's
// residual capacity can never be remapped — the coarse granularity that PM's
// per-flow mode selection removes.
//
// RetroFlow scans per-switch pair runs at every size: planning it over flow
// classes only pays behind an index some other solver has already built
// (DESIGN.md §13, table B).
func RetroFlow(p *Problem) (*Solution, error) {
	if !p.finalized() {
		return nil, fmt.Errorf("%w: problem not finalized", ErrInvalidProblem)
	}
	start := time.Now()
	s := NewSolution("RetroFlow", p)
	s.SwitchLevel = true

	rest := make([]int, p.NumControllers)
	copy(rest, p.Rest)
	covered := make([]bool, p.NumFlows)
	mapped := make([]bool, p.NumSwitches)

	// fitController returns the nearest controller that can absorb switch i
	// whole, or -1.
	fitController := func(i int) int {
		for _, j := range p.NearestControllers(i) {
			if rest[j] >= p.Gamma[i] {
				return j
			}
		}
		return -1
	}
	uncoveredGain := func(i int) int {
		gain := 0
		lo, hi := p.SwitchRun(i)
		for _, pr := range p.Pairs[lo:hi] {
			if !covered[pr.Flow] {
				gain++
			}
		}
		return gain
	}
	pbarSum := func(i int) int {
		sum := 0
		lo, hi := p.SwitchRun(i)
		for _, pr := range p.Pairs[lo:hi] {
			sum += pr.PBar
		}
		return sum
	}
	remap := func(i, j int) {
		mapped[i] = true
		s.SwitchController[i] = j
		rest[j] -= p.Gamma[i]
		lo, hi := p.SwitchRun(i)
		for k := lo; k < hi; k++ {
			s.Active[k] = true
			covered[p.Pairs[k].Flow] = true
		}
	}

	// Phase 1: coverage by uncovered-flow density.
	for {
		bestSwitch, bestController := -1, -1
		var bestNum, bestDen int // density bestNum/bestDen compared cross-multiplied
		for i := 0; i < p.NumSwitches; i++ {
			if mapped[i] || p.Gamma[i] == 0 {
				continue
			}
			gain := uncoveredGain(i)
			if gain == 0 {
				continue
			}
			j := fitController(i)
			if j < 0 {
				continue
			}
			if bestSwitch < 0 || gain*bestDen > bestNum*p.Gamma[i] {
				bestSwitch, bestController = i, j
				bestNum, bestDen = gain, p.Gamma[i]
			}
		}
		if bestSwitch < 0 {
			break
		}
		remap(bestSwitch, bestController)
	}

	// Phase 2: utilization by programmability density while anything fits.
	for {
		bestSwitch, bestController := -1, -1
		var bestNum, bestDen int
		for i := 0; i < p.NumSwitches; i++ {
			if mapped[i] || p.Gamma[i] == 0 {
				continue
			}
			sum := pbarSum(i)
			if sum == 0 {
				continue
			}
			j := fitController(i)
			if j < 0 {
				continue
			}
			if bestSwitch < 0 || sum*bestDen > bestNum*p.Gamma[i] {
				bestSwitch, bestController = i, j
				bestNum, bestDen = sum, p.Gamma[i]
			}
		}
		if bestSwitch < 0 {
			break
		}
		remap(bestSwitch, bestController)
	}

	s.Runtime = time.Since(start)
	return s, nil
}
