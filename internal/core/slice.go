package core

// Slice is a restriction of a finalized Problem to a subset of its switches
// and controllers: the sub-problem keeps exactly the eligible pairs at kept
// switches, the flows owning at least one such pair, and the delay/capacity
// rows of the kept indices. The hierarchical planner (internal/region) solves
// one Slice per region against region-local controller capacity and merges
// the sub-solutions through the index maps kept here.
//
// Slicing walks the kept switches ascending and copies each one's run of
// pairs as it stands, so the gathered pairs arrive switch-major, as Finalize
// wants them, without any sorting. A slice that keeps everything reproduces
// the parent problem content field for field, which is what makes the K=1
// hierarchical solve byte-identical to flat PM.
type Slice struct {
	// Sub is the finalized sub-problem over dense local indices.
	Sub *Problem
	// Switches[si] is the parent switch index of local switch si, ascending.
	Switches []int
	// Controllers[sj] is the parent controller index of local controller sj,
	// ascending.
	Controllers []int
	// Flows[sl] is the parent flow index of local flow sl, ascending. Nil
	// means the identity mapping (every parent flow survived).
	Flows []int
	// PairIndex[sk] is the parent pair index of local pair sk. Nil means the
	// identity mapping (every parent pair survived).
	PairIndex []int
}

// Slice restricts p to the switches and controllers marked in keepSwitch and
// keepController (indexed like p's switches/controllers). Flows are derived:
// a flow joins the slice iff it has an eligible pair at a kept switch. The
// returned sub-problem is finalized, inherits Lambda, and recomputes its own
// ideal delay budget over the kept delay columns.
//
// Slice returns (nil, nil) when no eligible pair survives the restriction or
// no controller is kept — there is nothing to solve; callers skip the region.
func (p *Problem) Slice(keepSwitch, keepController []bool) (*Slice, error) {
	if !p.finalized() {
		return nil, ErrInvalidProblem
	}
	sl := &Slice{}
	for i := 0; i < p.NumSwitches; i++ {
		if keepSwitch[i] {
			sl.Switches = append(sl.Switches, i)
		}
	}
	for j := 0; j < p.NumControllers; j++ {
		if keepController[j] {
			sl.Controllers = append(sl.Controllers, j)
		}
	}
	if len(sl.Switches) == 0 || len(sl.Controllers) == 0 {
		return nil, nil
	}
	if len(sl.Switches) == p.NumSwitches {
		allFlows := true
		for l := 0; l < p.NumFlows; l++ {
			if p.flowPairOff[l+1] == p.flowPairOff[l] {
				allFlows = false
				break
			}
		}
		if allFlows {
			return p.sliceAllSwitches(sl)
		}
	}

	// First pass: mark surviving flows; second pass assigns their local IDs
	// ascending so local flow order mirrors the parent's.
	flowLocal := make([]int, p.NumFlows)
	for l := range flowLocal {
		flowLocal[l] = -1
	}
	numPairs := 0
	for _, i := range sl.Switches {
		lo, hi := p.SwitchRun(i)
		for _, pr := range p.Pairs[lo:hi] {
			flowLocal[pr.Flow] = 0
		}
		numPairs += hi - lo
	}
	if numPairs == 0 {
		return nil, nil
	}
	for l := 0; l < p.NumFlows; l++ {
		if flowLocal[l] == 0 {
			flowLocal[l] = len(sl.Flows)
			sl.Flows = append(sl.Flows, l)
		} else {
			flowLocal[l] = -1
		}
	}

	sub := &Problem{
		NumSwitches:    len(sl.Switches),
		NumControllers: len(sl.Controllers),
		NumFlows:       len(sl.Flows),
		Lambda:         p.Lambda,
	}
	sub.Pairs = make([]Pair, 0, numPairs)
	sl.PairIndex = make([]int, 0, numPairs)
	for si, i := range sl.Switches {
		lo, hi := p.SwitchRun(i)
		for k := lo; k < hi; k++ {
			pr := p.Pairs[k]
			sub.Pairs = append(sub.Pairs, Pair{Switch: si, Flow: flowLocal[pr.Flow], PBar: pr.PBar})
			sl.PairIndex = append(sl.PairIndex, k)
		}
	}
	sub.Gamma = make([]int, sub.NumSwitches)
	backing := make([]float64, sub.NumSwitches*sub.NumControllers)
	sub.Delay = make([][]float64, sub.NumSwitches)
	for si, i := range sl.Switches {
		sub.Gamma[si] = p.Gamma[i]
		row := backing[si*sub.NumControllers : (si+1)*sub.NumControllers : (si+1)*sub.NumControllers]
		for sj, j := range sl.Controllers {
			row[sj] = p.Delay[i][j]
		}
		sub.Delay[si] = row
	}
	sub.Rest = make([]int, sub.NumControllers)
	for sj, j := range sl.Controllers {
		sub.Rest[sj] = p.Rest[j]
	}
	if err := sub.Finalize(); err != nil {
		return nil, err
	}
	sub.BudgetMs = sub.IdealDelayBudget()
	sl.Sub = sub
	return sl, nil
}

// sliceAllSwitches is the fast path for a restriction that keeps every switch
// (hence every pair and, when no flow is pairless, every flow): only the
// controller set shrinks, so the sub-problem shares the parent's pair slice
// and CSR indexes outright and just restricts the delay columns and
// capacities. The depth-1 hierarchical case hits this on every solve — a
// failed controller's whole domain lives in one region — and re-gathering
// hundreds of thousands of pairs there would cost more than the solve itself.
func (p *Problem) sliceAllSwitches(sl *Slice) (*Slice, error) {
	sub := &Problem{
		NumSwitches:     p.NumSwitches,
		NumControllers:  len(sl.Controllers),
		NumFlows:        p.NumFlows,
		Pairs:           p.Pairs,
		Gamma:           p.Gamma,
		Lambda:          p.Lambda,
		TotalIterations: p.TotalIterations,
		swPairOff:       p.swPairOff,
		flowPairs:       p.flowPairs,
		flowPairOff:     p.flowPairOff,
		// The class index depends only on the pairs, never on controllers, so
		// a parent-computed index carries over; a nil one is computed lazily
		// on the sub alone.
		classes: p.classes,
	}
	backing := make([]float64, sub.NumSwitches*sub.NumControllers)
	sub.Delay = make([][]float64, sub.NumSwitches)
	for i := 0; i < sub.NumSwitches; i++ {
		row := backing[i*sub.NumControllers : (i+1)*sub.NumControllers : (i+1)*sub.NumControllers]
		for sj, j := range sl.Controllers {
			row[sj] = p.Delay[i][j]
		}
		sub.Delay[i] = row
	}
	sub.Rest = make([]int, sub.NumControllers)
	for sj, j := range sl.Controllers {
		sub.Rest[sj] = p.Rest[j]
	}
	sub.BudgetMs = sub.IdealDelayBudget()
	sl.Sub = sub
	// Flows and PairIndex stay nil: identity mappings.
	return sl, nil
}

// MergeInto copies a sub-solution for this slice into a parent-indexed
// solution: switch mappings translate through Switches/Controllers and pair
// activations through PairIndex (nil = identity). Indices outside the slice
// are untouched, so disjoint slices merge into one parent solution in any
// order.
func (sl *Slice) MergeInto(parent *Solution, sub *Solution) {
	for si, i := range sl.Switches {
		if sj := sub.SwitchController[si]; sj >= 0 {
			parent.SwitchController[i] = sl.Controllers[sj]
		}
	}
	if sl.PairIndex == nil {
		for k, on := range sub.Active {
			if on {
				parent.Active[k] = true
			}
		}
		return
	}
	for sk, k := range sl.PairIndex {
		if sub.Active[sk] {
			parent.Active[k] = true
		}
	}
}
