package core

import (
	"fmt"
	"time"
)

// PM solves the FMSSM instance with the paper's Algorithm 1: iterative
// balanced recovery of the least-programmable flows followed by a final pass
// that spends leftover controller capacity on total programmability.
//
// Two implementations share this entry point and produce byte-identical
// Solutions: the per-flow path (pmFlat, this file) and the class-aggregated
// path (pm_agg.go), which plans over flow equivalence classes and is chosen
// for large instances whose flows compress well (aggClassIndex). The agg ≡
// flat equivalence is enforced by the randomized property test in agg_test.go.
//
// The paper's listing leaves two orders unspecified and contains two evident
// slips; this implementation resolves them as documented in DESIGN.md §8:
//
//   - The controller scan of lines 20–24 stops at the first (nearest)
//     controller with sufficient capacity (the listing forgets the break).
//   - A sweep in which no test-set switch hosts any least-programmability
//     flow fast-forwards to the next iteration instead of dereferencing a
//     NULL switch index.
//   - The loop stops at its first sweep that activates nothing, because
//     every later sweep would replay it.
//   - Within a switch, floor flows are activated scarcity-first (fewest
//     remaining alternative pairs first), so flows whose only eligible pair
//     sits at an oversubscribed hub switch are not starved by flows that
//     have alternatives elsewhere.
//   - Before the final utilization pass, switches whose controller ran dry
//     while they still had inactive pairs are remapped — whole, preserving
//     the switch-level mapping constraint — to the controller that can
//     absorb their activated load and fund the most additional pairs. This
//     is what keeps PM's total programmability near PG's (the paper's
//     claim) when geography concentrates mappings on few controllers.
func PM(p *Problem) (*Solution, error) {
	if !p.finalized() {
		return nil, fmt.Errorf("%w: problem not finalized", ErrInvalidProblem)
	}
	if ci := p.aggClassIndex(); ci != nil {
		return pmAgg(p, ci)
	}
	return pmFlat(p)
}

// aggMinFlows is the instance size below which PM stays on its per-flow path.
// It is read off the table in DESIGN.md §13.3 (TestAggCrossoverTable
// regenerates it): on the scale-syn fixture at 100–1000 nodes, class index
// plus pmAgg costs 1.1–1.7× pmFlat on nine of the eleven cases up to 5 400
// flows, is ahead on ten of the twelve between 7 900 and 17 500 flows
// (0.3–0.9×, and within 0.3 ms behind on the other two), and on every case
// from 28 000 flows up — 0.22–0.39× at the 91 000–140 000 flows of a
// 1000-node failure. The constant sits in the gap between the first two
// bands. sweep-att (ATT, 600 flows) is the workload on the flat side of it,
// scale-syn the one on the other.
const aggMinFlows = 6500

// aggClassIndex returns the class index when PM should run aggregated:
// enough flows to matter and at least 2× signature compression. Everything
// else — fewer flows, a flow with more than maxClassPairs pairs, a p̄ above
// maxClassPBar, signatures that barely repeat — lands on pmFlat, whose
// per-switch work is linear in the switch's pairs.
func (p *Problem) aggClassIndex() *classIndex {
	if p.NumFlows < aggMinFlows {
		return nil
	}
	ci := p.classIndexOf()
	if ci == nil || ci.numClasses*2 > p.NumFlows {
		return nil
	}
	return ci
}

// finalPassRounds caps the rounds of PM's final utilization pass, flat and
// aggregated; quiescence normally ends it far sooner.
const finalPassRounds = 64

// pmFlat is the per-flow reference implementation of PM.
func pmFlat(p *Problem) (*Solution, error) {
	start := time.Now()
	s := NewSolution("PM", p)
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)
	refine(p, s, sc, balanceFlat(p, s, sc), finalPassRounds)
	s.Runtime = time.Since(start)
	return s, nil
}

// balanceFlat runs pmFlat up to its final pass: the balancing loop (Algorithm
// 1 lines 1–41), then maps every switch the loop never selected. It returns
// the controllers' residual capacity.
func balanceFlat(p *Problem, s *Solution, sc *solverScratch) []int {
	rest := grabInts(&sc.rest, p.NumControllers)
	copy(rest, p.Rest)
	h := grabInts(&sc.h, p.NumFlows) // temporary programmability per flow
	// alternatives[l] counts flow l's not-yet-activated pairs; it drives the
	// scarcity-first activation order.
	alternatives := growSlice(&sc.alternatives, p.NumFlows)
	maxAlt := 0 // the largest per-flow pair count: the floor sort's key range
	for l := range alternatives {
		alternatives[l] = len(p.PairsOfFlow(l))
		maxAlt = max(maxAlt, alternatives[l])
	}

	inTestSet := grabBools(&sc.inTestSet, p.NumSwitches)
	resetTestSet := func() {
		for i := range inTestSet {
			inTestSet[i] = true
		}
	}
	resetTestSet()
	remaining := p.NumSwitches
	sigma := 0
	testCount, progressed := 0, false // progressed: this sweep activated a pair

	// Pooled nearest-controller cache (delay-ascending order per switch).
	grabInts(&sc.nearestBuf, p.NumSwitches*p.NumControllers)
	grabBools(&sc.nearestSet, p.NumSwitches)

	minH := func() int {
		m := int(^uint(0) >> 1)
		for _, v := range h {
			if v < m {
				m = v
			}
		}
		if len(h) == 0 {
			return 0
		}
		return m
	}

	// floorPairs[i] counts switch i's pairs whose flow still sits at the
	// current floor σ — the testNum of the paper's lines 5–15, maintained
	// incrementally instead of rescanning every switch's pair list on every
	// balancing iteration. It is rebuilt in O(|Pairs|) when σ advances and
	// decremented (across all of a flow's switches) when an activation lifts
	// the flow off the floor.
	floorPairs := grabInts(&sc.floorPairs, p.NumSwitches)
	rebuildFloor := func() {
		for i := range floorPairs {
			floorPairs[i] = 0
		}
		for _, pr := range p.Pairs {
			if h[pr.Flow] == sigma {
				floorPairs[pr.Switch]++
			}
		}
	}
	rebuildFloor()

	activate := func(k, j0 int) {
		l := p.Pairs[k].Flow
		if h[l] == sigma {
			// The flow leaves the floor (p̄ >= 2 > 0): every switch hosting
			// one of its pairs loses a floor pair.
			for _, kk := range p.PairsOfFlow(l) {
				floorPairs[p.Pairs[kk].Switch]--
			}
		}
		rest[j0]--
		h[l] += p.Pairs[k].PBar
		alternatives[l]--
		s.Active[k] = true
		progressed = true
	}

	// endSweep closes a balancing sweep. The loop stops at its first sweep
	// that activates no pair: such a sweep leaves h, rest, Active and
	// alternatives unchanged, so the next one has the same σ, the same
	// floorPairs and the same selection order. Every switch it selects is
	// already mapped, or maps to the same controller because rest is
	// unchanged; it activates nothing either, and by induction neither does
	// any later sweep.
	endSweep := func() {
		if !progressed {
			testCount = p.TotalIterations
			return
		}
		progressed = false
		testCount++
		resetTestSet()
		remaining = p.NumSwitches
		sigma = minH()
		rebuildFloor()
	}

	scratch := sc.pairScratch[:0]
	for testCount < p.TotalIterations {
		// Find the switch hosting the most flows whose programmability still
		// sits at the current floor σ (lines 5–15).
		delta, i0 := 0, -1
		for i := 0; i < p.NumSwitches; i++ {
			if inTestSet[i] && floorPairs[i] > delta {
				delta, i0 = floorPairs[i], i
			}
		}
		if i0 < 0 {
			// No switch in the test set can lift a floor flow: end the sweep.
			endSweep()
			continue
		}

		// Map switch i0 to a controller (lines 17–29).
		j0 := s.SwitchController[i0]
		if j0 < 0 {
			j0 = mapSwitchPM(p, sc, rest, i0)
			s.SwitchController[i0] = j0
		}
		inTestSet[i0] = false
		remaining--

		// Enable SDN mode for floor flows at i0 while capacity lasts
		// (lines 31–36), scarcity-first. A dry controller activates nothing,
		// so its switch skips the scan and the sort.
		if rest[j0] > 0 {
			scratch = scratch[:0]
			for k, hi := p.SwitchRun(i0); k < hi; k++ {
				if !s.Active[k] && h[p.Pairs[k].Flow] <= sigma {
					scratch = append(scratch, k)
				}
			}
			// Stable counting sort, alternatives-ascending (flow-ascending
			// within a level, the switch's run order). One switch's floor
			// pairs are a handful at ATT size and tens of thousands at a
			// carrier-scale hub, so the sort has to be linear; the pooled
			// bucket and order buffers are free until the final pass.
			bucket := grabInts(&sc.bucket, maxAlt+1)
			for _, k := range scratch {
				bucket[alternatives[p.Pairs[k].Flow]]++
			}
			for v, acc := 0, 0; v <= maxAlt; v++ {
				bucket[v], acc = acc, acc+bucket[v]
			}
			sorted := growSlice(&sc.order, len(scratch))
			for _, k := range scratch {
				alt := alternatives[p.Pairs[k].Flow]
				sorted[bucket[alt]] = k
				bucket[alt]++
			}
			for _, k := range sorted {
				if rest[j0] <= 0 {
					break
				}
				if h[p.Pairs[k].Flow] <= sigma { // may have been lifted this loop
					activate(k, j0)
				}
			}
		}

		if remaining == 0 {
			endSweep()
		}
	}
	sc.pairScratch = scratch

	// Map any switch the balancing loop never selected (all of its flows
	// were lifted elsewhere first) so the utilization pass can reach its
	// pairs: nearest controller with spare capacity, else nearest.
	for i := 0; i < p.NumSwitches; i++ {
		if s.SwitchController[i] >= 0 || p.EligiblePairCount(i) == 0 {
			continue
		}
		s.SwitchController[i] = mapLeftoverSwitch(p, sc, rest, i)
	}
	return rest
}

// mapSwitchPM picks the controller for a newly selected switch (Algorithm 1
// lines 17–29): nearest with capacity for the whole switch (γ flows), else
// nearest that can absorb its SDN-mode control cost — the eligible pair
// count, which is what hybrid routing actually charges — else the controller
// with the most residual capacity (line 26).
func mapSwitchPM(p *Problem, sc *solverScratch, rest []int, i0 int) int {
	nearest := sc.nearestRow(p, i0)
	for _, j := range nearest {
		if rest[j] >= p.Gamma[i0] {
			return j
		}
	}
	for _, j := range nearest {
		if rest[j] >= p.EligiblePairCount(i0) {
			return j
		}
	}
	best := -1
	for j := 0; j < p.NumControllers; j++ {
		if best < 0 || rest[j] > rest[best] {
			best = j
		}
	}
	return best
}

// mapLeftoverSwitch maps a switch the balancing loop never selected: the
// nearest controller with spare capacity, else the nearest outright.
func mapLeftoverSwitch(p *Problem, sc *solverScratch, rest []int, i int) int {
	nearest := sc.nearestRow(p, i)
	j0 := nearest[0]
	for _, j := range nearest {
		if rest[j] > 0 {
			j0 = j
			break
		}
	}
	return j0
}

// pairsByPBarDesc orders all pair indices p̄-descending with a stable
// counting sort into the pooled order buffer: within equal p̄ the (Switch,
// Flow) ascending order of Pairs is preserved.
func pairsByPBarDesc(p *Problem, sc *solverScratch) []int {
	maxPBar := 0
	for _, pr := range p.Pairs {
		if pr.PBar > maxPBar {
			maxPBar = pr.PBar
		}
	}
	bucket := grabInts(&sc.bucket, maxPBar+1)
	for _, pr := range p.Pairs {
		bucket[pr.PBar]++
	}
	for v, acc := maxPBar, 0; v >= 0; v-- {
		bucket[v], acc = acc, acc+bucket[v]
	}
	byPBar := grabInts(&sc.order, len(p.Pairs))
	for k, pr := range p.Pairs {
		byPBar[bucket[pr.PBar]] = k
		bucket[pr.PBar]++
	}
	return byPBar
}

// rebalanceCore moves whole switches between controllers when the move lets
// more of the switch's inactive pairs be funded — or, gain being equal,
// lowers control delay — keeping the per-switch single-controller mapping.
// activated/inactive hold the per-switch pair counts; rest is updated in
// place; it reports whether any switch moved. A move never maps or unmaps a
// switch.
func rebalanceCore(p *Problem, s *Solution, rest, activated, inactive []int) bool {
	anyMoved := false
	// The move budget guards against ping-pong cycles; gains are strict so
	// cycles are not expected, but the bound makes termination unconditional.
	budget := 4 * p.NumSwitches
	for moved := true; moved && budget > 0; {
		moved = false
		budget--
		for i := 0; i < p.NumSwitches; i++ {
			j := s.SwitchController[i]
			if j < 0 || inactive[i] == 0 {
				continue
			}
			// fundable pairs if the switch stays put vs. moves to j'.
			stay := min(rest[j], inactive[i])
			bestJ, bestGain := -1, 0
			for j2 := 0; j2 < p.NumControllers; j2++ {
				if j2 == j || rest[j2] < activated[i] {
					continue
				}
				gain := min(rest[j2]-activated[i], inactive[i]) - stay
				if gain > bestGain ||
					(gain == bestGain && bestJ >= 0 && p.Delay[i][j2] < p.Delay[i][bestJ]) {
					bestGain, bestJ = gain, j2
				}
			}
			if bestJ < 0 {
				continue
			}
			rest[j] += activated[i]
			rest[bestJ] -= activated[i]
			s.SwitchController[i] = bestJ
			moved, anyMoved = true, true
		}
	}
	return anyMoved
}

// upgrade performs capacity-aware pair swaps: if a flow holds an activated
// low-p̄ pair while a higher-p̄ pair of the same flow sits inactive at a
// switch whose controller has room (or at a switch charged to the same
// controller), swap them. Each swap strictly increases total programmability
// without overloading any controller, so the loop terminates. It reports
// whether anything changed.
//
// Only stale flows are scanned, in flow order. A scan that ends without a
// candidate pair read nothing but the flow's own pairs' Active bits and
// whether their switches are mapped. Other flows' swaps do not touch those,
// nor does a rebalance, which only moves mapped switches; so the flow stays
// clean until a fill activates one of its pairs (refine marks it stale
// again). A scan stopped by a full controller stays stale, since any swap
// or move can free capacity.
func upgrade(p *Problem, s *Solution, rest, activated, inactive []int, stale []bool) bool {
	changed := false
	for l := 0; l < p.NumFlows; l++ {
		if !stale[l] {
			continue
		}
		stale[l] = false
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
				jNew := s.SwitchController[p.Pairs[k].Switch]
				if jNew < 0 {
					continue
				}
				if best < 0 || p.Pairs[k].PBar > p.Pairs[best].PBar {
					best = k
				}
			}
			if worst < 0 || best < 0 || p.Pairs[best].PBar <= p.Pairs[worst].PBar {
				break
			}
			iOld, iNew := p.Pairs[worst].Switch, p.Pairs[best].Switch
			jOld, jNew := s.SwitchController[iOld], s.SwitchController[iNew]
			if jNew != jOld && rest[jNew] <= 0 {
				stale[l] = true
				break
			}
			s.Active[worst] = false
			activated[iOld]--
			inactive[iOld]++
			rest[jOld]++
			s.Active[best] = true
			activated[iNew]++
			inactive[iNew]--
			rest[jNew]--
			changed = true
		}
	}
	return changed
}
