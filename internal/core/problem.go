// Package core implements the paper's primary contribution: the FMSSM
// (Flow Mode Selection and Switch Mapping) problem model, the PM heuristic
// (Algorithm 1), and the two comparison heuristics RetroFlow (switch-level)
// and PG (flow-level).
//
// The package is deliberately free of topology types: a Problem is a pure
// optimization instance over dense indices. internal/scenario builds
// Problems from a topology deployment, a workload, and a failure case.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Pair is an eligible (switch, flow) decision point: flow Flow traverses
// offline switch Switch with β = 1 (at least two paths to the destination
// remain), so configuring the flow in SDN mode there yields PBar = p̄_i^l
// units of path programmability and consumes one unit of the mapped
// controller's capacity.
type Pair struct {
	Switch int
	Flow   int
	PBar   int
}

// Problem is one FMSSM instance: N offline switches, M active controllers,
// L offline flows, and the eligible (switch, flow) pairs.
type Problem struct {
	// NumSwitches (N), NumControllers (M), and NumFlows (L) size the index
	// spaces of Pairs, Delay, Rest, and Gamma.
	NumSwitches    int
	NumControllers int
	NumFlows       int

	// Rest[j] is A_j^rest: controller j's residual capacity in flows.
	Rest []int
	// Delay[i][j] is D_ij: control propagation delay (ms) from offline
	// switch i to active controller j.
	Delay [][]float64
	// Gamma[i] is γ_i: the number of flows traversing offline switch i. It
	// is the whole-switch control cost used by switch-level recovery and by
	// the capacity pre-check of PM's mapping step.
	Gamma []int
	// Pairs lists every eligible (switch, flow) decision point, switch-major:
	// ascending by Switch, with each switch's flows in the order given
	// (ascending from every builder in this module). Every stage reads a
	// switch's pairs as one contiguous run of this slice. Finalize checks the
	// order and, for a hand-built problem that is not in it, reorders Pairs in
	// place — so pair indices, and with them Solution.Active, refer to Pairs
	// as Finalize left it.
	Pairs []Pair
	// BudgetMs is G: the total control propagation delay of the ideal
	// recovery (every offline switch mapped to its nearest active
	// controller), Σ_i γ_i · min_j D_ij.
	BudgetMs float64
	// Lambda weighs the total-programmability objective against the min-
	// programmability objective: obj = r + Lambda · Σ_l pro^l.
	Lambda float64
	// TotalIterations bounds PM's balancing loop; the paper sets it to the
	// maximum number of offline switches on any offline flow's path.
	TotalIterations int

	// Pair indexes, built by Finalize. Pairs is switch-major, so switch i's
	// pairs are the run Pairs[swPairOff[i]:swPairOff[i+1]] and need no index
	// of their own; flow l's pair indices, ascending (hence switch-ascending),
	// are flowPairs[flowPairOff[l]:flowPairOff[l+1]].
	swPairOff   []int32
	flowPairs   []int
	flowPairOff []int32

	// classes caches the flow equivalence-class index used by the aggregated
	// PM path; computed lazily by classIndexOf.
	classes *classIndex
}

// DefaultLambda is the weight used when Problem.Lambda is zero. A small
// positive weight keeps the lexicographic intent of the two-stage objective
// (balance first, then total programmability) per the paper's reference [17].
const DefaultLambda = 1e-3

// Validation errors.
var (
	ErrEmptyProblem   = errors.New("core: empty problem")
	ErrInvalidProblem = errors.New("core: invalid problem")
)

// Finalize validates the instance, puts Pairs in switch-major order when they
// are not, fills derived fields (pair indexes, default lambda, TotalIterations
// when unset), and must be called before the problem is handed to any solver.
func (p *Problem) Finalize() error {
	if p.NumSwitches <= 0 || p.NumControllers <= 0 || p.NumFlows <= 0 {
		return fmt.Errorf("%w: N=%d M=%d L=%d", ErrEmptyProblem, p.NumSwitches, p.NumControllers, p.NumFlows)
	}
	if len(p.Rest) != p.NumControllers {
		return fmt.Errorf("%w: len(Rest)=%d, want %d", ErrInvalidProblem, len(p.Rest), p.NumControllers)
	}
	if len(p.Gamma) != p.NumSwitches {
		return fmt.Errorf("%w: len(Gamma)=%d, want %d", ErrInvalidProblem, len(p.Gamma), p.NumSwitches)
	}
	if len(p.Delay) != p.NumSwitches {
		return fmt.Errorf("%w: len(Delay)=%d, want %d", ErrInvalidProblem, len(p.Delay), p.NumSwitches)
	}
	for i, row := range p.Delay {
		if len(row) != p.NumControllers {
			return fmt.Errorf("%w: len(Delay[%d])=%d, want %d", ErrInvalidProblem, i, len(row), p.NumControllers)
		}
		for j, d := range row {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("%w: Delay[%d][%d]=%v", ErrInvalidProblem, i, j, d)
			}
		}
	}
	for j, a := range p.Rest {
		if a < 0 {
			return fmt.Errorf("%w: Rest[%d]=%d", ErrInvalidProblem, j, a)
		}
	}
	// One pass over the pairs validates them, counts them per switch and per
	// flow, and notes whether they are switch-major already. Flow counts land
	// two slots up so that flowOff doubles as the fill cursor below: after the
	// prefix sums slot l+1 holds flow l's start, the fill advances it to l's
	// end, which is l+1's start, and slots [0, L] come out as the offsets.
	swOff := make([]int32, p.NumSwitches+1)
	flowOff := make([]int32, p.NumFlows+2)
	switchMajor, last := true, 0
	for k, pr := range p.Pairs {
		if pr.Switch < 0 || pr.Switch >= p.NumSwitches {
			return fmt.Errorf("%w: pair %d switch %d", ErrInvalidProblem, k, pr.Switch)
		}
		if pr.Flow < 0 || pr.Flow >= p.NumFlows {
			return fmt.Errorf("%w: pair %d flow %d", ErrInvalidProblem, k, pr.Flow)
		}
		if pr.PBar < 2 {
			return fmt.Errorf("%w: pair %d p̄=%d (eligible pairs need p̄ >= 2)", ErrInvalidProblem, k, pr.PBar)
		}
		switchMajor = switchMajor && pr.Switch >= last
		last = pr.Switch
		swOff[pr.Switch+1]++
		flowOff[pr.Flow+2]++
	}
	if p.Lambda == 0 {
		p.Lambda = DefaultLambda
	}
	if p.Lambda < 0 {
		return fmt.Errorf("%w: Lambda=%v", ErrInvalidProblem, p.Lambda)
	}
	for i := 1; i < len(swOff); i++ {
		swOff[i] += swOff[i-1]
	}
	maxFlowPairs := int32(0)
	for l := 2; l < len(flowOff); l++ {
		maxFlowPairs = max(maxFlowPairs, flowOff[l])
		flowOff[l] += flowOff[l-1]
	}
	if !switchMajor {
		// A stable counting sort by switch, written back over Pairs.
		sorted := make([]Pair, len(p.Pairs))
		next := slices.Clone(swOff[:p.NumSwitches])
		for _, pr := range p.Pairs {
			sorted[next[pr.Switch]] = pr
			next[pr.Switch]++
		}
		copy(p.Pairs, sorted)
	}
	p.flowPairs = make([]int, len(p.Pairs))
	for k := range p.Pairs {
		l := p.Pairs[k].Flow
		p.flowPairs[flowOff[l+1]] = k
		flowOff[l+1]++
	}
	p.swPairOff, p.flowPairOff = swOff, flowOff[:p.NumFlows+1]
	p.classes = nil
	if p.TotalIterations == 0 {
		p.TotalIterations = max(int(maxFlowPairs), 1)
	}
	return nil
}

// finalized reports whether Finalize has run.
func (p *Problem) finalized() bool { return p.swPairOff != nil }

// SwitchRun returns the half-open range [lo, hi) of indices into Pairs (and
// Solution.Active) holding switch i's eligible pairs.
func (p *Problem) SwitchRun(i int) (lo, hi int) {
	return int(p.swPairOff[i]), int(p.swPairOff[i+1])
}

// PairsOfFlow returns the indices into Pairs of flow l's eligible pairs.
// The returned slice is a view into the shared CSR index; callers must not
// mutate it.
func (p *Problem) PairsOfFlow(l int) []int {
	return p.flowPairs[p.flowPairOff[l]:p.flowPairOff[l+1]]
}

// EligiblePairCount returns the number of eligible pairs at switch i (the
// maximum SDN-mode control cost the switch can impose on a controller under
// per-flow mode selection).
func (p *Problem) EligiblePairCount(i int) int {
	return int(p.swPairOff[i+1] - p.swPairOff[i])
}

// NearestControllers returns controller indices sorted by ascending delay
// from switch i (stable tie-break on controller index): the paper's C(i).
func (p *Problem) NearestControllers(i int) []int {
	order := make([]int, p.NumControllers)
	for j := range order {
		order[j] = j
	}
	row := p.Delay[i]
	// Insertion sort: M is small (<= 6 in the evaluation) and this keeps the
	// tie-break explicit.
	for a := 1; a < len(order); a++ {
		for b := a; b > 0; b-- {
			x, y := order[b-1], order[b]
			if row[x] > row[y] || (row[x] == row[y] && x > y) {
				order[b-1], order[b] = y, x
			} else {
				break
			}
		}
	}
	return order
}

// TotalRest returns Σ_j A_j^rest.
func (p *Problem) TotalRest() int {
	var t int
	for _, a := range p.Rest {
		t += a
	}
	return t
}

// IdealDelayBudget computes G = Σ_i γ_i · min_j D_ij. Scenario builders use
// it to fill BudgetMs; it is exposed for tests and custom instances.
func (p *Problem) IdealDelayBudget() float64 {
	var g float64
	for i := 0; i < p.NumSwitches; i++ {
		best := math.Inf(1)
		for j := 0; j < p.NumControllers; j++ {
			if p.Delay[i][j] < best {
				best = p.Delay[i][j]
			}
		}
		if !math.IsInf(best, 1) {
			g += float64(p.Gamma[i]) * best
		}
	}
	return g
}
