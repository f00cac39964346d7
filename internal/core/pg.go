package core

import (
	"fmt"
	"time"
)

// PG re-implements the flow-level baseline ProgrammabilityGuardian of Guo et
// al. (IEEE/ACM IWQoS'20): a FlowVisor-style middle layer between switches
// and controllers lets every offline flow be mapped to any active controller
// independently, so capacity is allocated per (switch, flow) pair with no
// per-switch mapping constraint at all. This is the upper envelope of
// recovery granularity — at the cost of the middle layer's extra processing
// delay and reliability exposure, which the evaluation charges through the
// middle-layer delay model (Solution.MiddleLayer).
//
// The allocation mirrors PG's two objectives: balanced programmability first
// (round-based lifting of the least-programmable flows, each round picking
// the highest-p̄ unused pair of each floor flow), then full utilization of
// leftover capacity on total programmability. Pairs are charged to the
// controller with the most residual capacity — the middle layer decouples
// placement from delay, which is also why PG's per-flow overhead is the
// worst of the compared algorithms.
//
// PG plans flow by flow at every size: its output is per copy by nature —
// each activated pair is charged to the argmax-residual controller at its own
// moment — and planning it over flow classes measures 2–40× slower than this
// loop from 10³ to 1.4·10⁵ flows (DESIGN.md §13, table B).
func PG(p *Problem) (*Solution, error) {
	if !p.finalized() {
		return nil, fmt.Errorf("%w: problem not finalized", ErrInvalidProblem)
	}
	start := time.Now()
	s := NewSolution("PG", p)
	s.MiddleLayer = true
	s.PairController = make([]int, len(p.Pairs))
	for k := range s.PairController {
		s.PairController[k] = -1
	}
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)

	rest := grabInts(&sc.rest, p.NumControllers)
	copy(rest, p.Rest)
	h := grabInts(&sc.h, p.NumFlows)

	maxRestController := func() int {
		best := -1
		for j := 0; j < p.NumControllers; j++ {
			if rest[j] > 0 && (best < 0 || rest[j] > rest[best]) {
				best = j
			}
		}
		return best
	}
	// bestPair returns flow l's inactive pair with the largest p̄, or -1.
	bestPair := func(l int) int {
		best := -1
		for _, k := range p.PairsOfFlow(l) {
			if s.Active[k] {
				continue
			}
			if best < 0 || p.Pairs[k].PBar > p.Pairs[best].PBar {
				best = k
			}
		}
		return best
	}

	// Phase 1: balanced recovery. Each round lifts every flow currently at
	// the programmability floor by (at most) one pair; rounds repeat until
	// either capacity runs out or no floor flow has an unused pair left.
	for {
		sigma := int(^uint(0) >> 1)
		for _, v := range h {
			if v < sigma {
				sigma = v
			}
		}
		progress := false
		for l := 0; l < p.NumFlows; l++ {
			if h[l] != sigma {
				continue
			}
			k := bestPair(l)
			if k < 0 {
				continue
			}
			j := maxRestController()
			if j < 0 {
				break
			}
			rest[j]--
			s.Active[k] = true
			s.PairController[k] = j
			h[l] += p.Pairs[k].PBar
			progress = true
		}
		if !progress {
			break
		}
	}

	// Phase 2: full utilization — activate any remaining pair while capacity
	// lasts, highest p̄ first.
	for _, k := range pairsByPBarDesc(p, sc) {
		if s.Active[k] {
			continue
		}
		j := maxRestController()
		if j < 0 {
			break
		}
		rest[j]--
		s.Active[k] = true
		s.PairController[k] = j
	}

	s.Runtime = time.Since(start)
	return s, nil
}
