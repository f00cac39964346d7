// Package opt implements the Optimal comparator of the paper's evaluation:
// the FMSSM problem P′ solved exactly (within a budget) by the pure-Go
// lp+mip stack.
//
// Instead of the paper's Θ(N·M·L) ω-linearization, it uses the equivalent
// compact model of DESIGN.md §4: binaries x_{ij} (switch→controller) and
// z_k (pair k in SDN mode) plus continuous per-switch-per-controller charged
// load c_{ij}. Because each switch maps to at most one controller, any
// feasible (x, z) extends uniquely to c and vice versa, and c's integrality
// is implied — the model has ~N·M + |pairs| binaries rather than ~N·M·L.
//
// As in the paper, the model carries the hard constraint r ≥ 1 ("each
// offline flow must be recovered"): in tight failure cases it is infeasible
// and Search returns ErrNoSolution, mirroring GUROBI's missing results in
// 8 of 20 three-failure cases.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/lp"
	"pmedic/internal/mip"
)

// ErrNoSolution reports that no integer-feasible solution with r >= 1 was
// found: the model is infeasible, or the search budget expired first.
var ErrNoSolution = errors.New("opt: no solution")

// Options tunes the exact solve. The zero value selects defaults.
type Options struct {
	// TimeLimit bounds the branch & bound wall clock (default 60s).
	TimeLimit time.Duration
	// MaxNodes bounds explored nodes (default mip's).
	MaxNodes int
	// Warm optionally seeds the search with a heuristic solution (it is
	// used only if it is feasible for the model, i.e. recovers every flow
	// and respects the delay budget).
	Warm *core.Solution
	// Workers sets how many goroutines expand branch & bound nodes
	// concurrently (default 1). The search result is identical for any
	// worker count given the same node budget.
	Workers int
	// RequireProved makes Solve return ErrNoSolution unless optimality was
	// proved (tree exhausted, no node dropped); by default the incumbent of
	// an incomplete search is returned, matching how a time-limited GUROBI
	// run is reported.
	RequireProved bool
}

func (o Options) withDefaults() Options {
	if o.TimeLimit == 0 {
		o.TimeLimit = 60 * time.Second
	}
	return o
}

// model holds the variable layout of one compiled instance.
type model struct {
	m    *mip.Model
	p    *core.Problem
	x    [][]int // x[i][j]
	z    []int   // z[k] per pair
	cij  [][]int // c[i][j]
	rVar int

	// Row indices for sensitivity analysis.
	capRows   []int // capacity row per controller
	budgetRow int   // delay-budget row
}

// Result is what an exact search found and what it can say about it.
type Result struct {
	// Solution is the incumbent as a core.Solution; nil when the search
	// ended without one (Search then also returns ErrNoSolution).
	Solution *core.Solution
	// Result is the branch & bound outcome. Status optimal and infeasible
	// are proofs (tree exhausted); feasible and unknown mean the search was
	// cut short by a budget or by a relaxation it could not finish.
	// Objective and Bound are in the model's terms (r + λ·Σ p̄·z); Bound can
	// be +Inf when even the root was not solved.
	*mip.Result
}

// Proved reports whether the tree was exhausted, i.e. Solution is optimal
// (or, with no solution, the model is infeasible).
func (r *Result) Proved() bool {
	return r.Status == mip.StatusOptimal || r.Status == mip.StatusInfeasible
}

// Solve is Search for callers that want only the solution.
func Solve(p *core.Problem, opts Options) (*core.Solution, error) {
	res, err := Search(p, opts)
	if err != nil {
		return nil, err
	}
	return res.Solution, nil
}

// Search builds and solves the compact FMSSM model for p. The Result is
// non-nil whenever branch & bound ran, also beside an ErrNoSolution.
func Search(p *core.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	md, err := build(p)
	if err != nil {
		return nil, err
	}
	mipOpts := mip.Options{
		TimeLimit: opts.TimeLimit,
		MaxNodes:  opts.MaxNodes,
		Workers:   opts.Workers,
		Heuristic: md.repair,
	}
	if opts.Warm != nil {
		if pt, ok := md.warmPoint(opts.Warm); ok {
			mipOpts.Incumbent = pt
		}
	}
	mres, err := md.m.Solve(mipOpts)
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	res := &Result{Result: mres}
	if err := opts.refusal(mres); err != nil {
		return res, err
	}
	sol := md.extract(mres.X)
	sol.Runtime = time.Since(start)
	if err := sol.Verify(p); err != nil {
		return nil, fmt.Errorf("opt: extracted solution: %w", err)
	}
	res.Solution = sol
	return res, nil
}

// refusal is the ErrNoSolution a search outcome amounts to under o, or nil
// when its incumbent is to be returned.
func (o Options) refusal(res *mip.Result) error {
	switch res.Status {
	case mip.StatusOptimal:
		return nil
	case mip.StatusFeasible:
		if o.RequireProved {
			return fmt.Errorf("%w: not proved after %d nodes (budget expired or a relaxation hit its iteration limit), gap %.3f", ErrNoSolution, res.Nodes, res.Gap)
		}
		return nil
	default:
		return fmt.Errorf("%w: %v after %d nodes", ErrNoSolution, res.Status, res.Nodes)
	}
}

// build compiles the compact model.
func build(p *core.Problem) (*model, error) {
	if len(p.Pairs) == 0 {
		return nil, fmt.Errorf("opt: %w: no eligible pairs", ErrNoSolution)
	}
	md := &model{
		m: mip.NewModel(lp.Maximize),
		p: p,
	}
	N, M := p.NumSwitches, p.NumControllers

	md.rVar = md.m.AddVar(1, math.Inf(1), 1, "r", false)
	md.x = make([][]int, N)
	md.cij = make([][]int, N)
	for i := 0; i < N; i++ {
		md.x[i] = make([]int, M)
		md.cij[i] = make([]int, M)
		for j := 0; j < M; j++ {
			suffix := strconv.Itoa(i) + "_" + strconv.Itoa(j)
			md.x[i][j] = md.m.AddBinary(0, "x"+suffix)
			md.cij[i][j] = md.m.AddVar(0, float64(p.EligiblePairCount(i)), 0, "c"+suffix, false)
		}
	}
	md.z = make([]int, len(p.Pairs))
	for k, pr := range p.Pairs {
		md.z[k] = md.m.AddVar(0, 1, p.Lambda*float64(pr.PBar), "z"+strconv.Itoa(k), true)
	}

	// (2) Each switch maps to at most one controller.
	for i := 0; i < N; i++ {
		terms := make([]lp.Term, M)
		for j := 0; j < M; j++ {
			terms[j] = lp.Term{Var: md.x[i][j], Coeff: 1}
		}
		if err := md.m.AddRow(lp.LE, 1, terms...); err != nil {
			return nil, err
		}
	}
	// Linking: c_ij <= u_i·x_ij.
	for i := 0; i < N; i++ {
		u := float64(p.EligiblePairCount(i))
		for j := 0; j < M; j++ {
			if err := md.m.AddRow(lp.LE, 0,
				lp.Term{Var: md.cij[i][j], Coeff: 1},
				lp.Term{Var: md.x[i][j], Coeff: -u},
			); err != nil {
				return nil, err
			}
		}
	}
	// Balance: Σ_j c_ij = Σ_{k at i} z_k.
	for i := 0; i < N; i++ {
		lo, hi := p.SwitchRun(i)
		terms := make([]lp.Term, 0, M+hi-lo)
		for j := 0; j < M; j++ {
			terms = append(terms, lp.Term{Var: md.cij[i][j], Coeff: 1})
		}
		for k := lo; k < hi; k++ {
			terms = append(terms, lp.Term{Var: md.z[k], Coeff: -1})
		}
		if err := md.m.AddRow(lp.EQ, 0, terms...); err != nil {
			return nil, err
		}
	}
	// (12) Controller capacity: Σ_i c_ij <= A_j^rest. Row indices are
	// recorded for shadow-price queries: rows so far are N mapping +
	// N·M linking + N balance.
	rowBase := N + N*M + N
	md.capRows = make([]int, M)
	for j := 0; j < M; j++ {
		md.capRows[j] = rowBase + j
		terms := make([]lp.Term, N)
		for i := 0; i < N; i++ {
			terms[i] = lp.Term{Var: md.cij[i][j], Coeff: 1}
		}
		if err := md.m.AddRow(lp.LE, float64(p.Rest[j]), terms...); err != nil {
			return nil, err
		}
	}
	md.budgetRow = rowBase + M
	// (14) Delay budget: Σ_ij c_ij·D_ij <= G.
	{
		terms := make([]lp.Term, 0, N*M)
		for i := 0; i < N; i++ {
			for j := 0; j < M; j++ {
				terms = append(terms, lp.Term{Var: md.cij[i][j], Coeff: p.Delay[i][j]})
			}
		}
		if err := md.m.AddRow(lp.LE, p.BudgetMs, terms...); err != nil {
			return nil, err
		}
	}
	// (13) Per-flow programmability: Σ p̄·z − r >= 0.
	for l := 0; l < p.NumFlows; l++ {
		ks := p.PairsOfFlow(l)
		terms := make([]lp.Term, 0, len(ks)+1)
		for _, k := range ks {
			terms = append(terms, lp.Term{Var: md.z[k], Coeff: float64(p.Pairs[k].PBar)})
		}
		terms = append(terms, lp.Term{Var: md.rVar, Coeff: -1})
		if err := md.m.AddRow(lp.GE, 0, terms...); err != nil {
			return nil, err
		}
	}
	return md, nil
}

// warmPoint converts a heuristic solution into a model point, or reports
// that it cannot seed the model (flow-level solutions, unrecovered flows).
func (md *model) warmPoint(s *core.Solution) ([]float64, bool) {
	p := md.p
	if s.PairController != nil || s.SwitchLevel {
		return nil, false
	}
	if len(s.SwitchController) != p.NumSwitches || len(s.Active) != len(p.Pairs) {
		return nil, false
	}
	pt := make([]float64, md.m.NumVars())
	counts := make([][]float64, p.NumSwitches)
	for i := range counts {
		counts[i] = make([]float64, p.NumControllers)
	}
	pro := make([]int, p.NumFlows)
	for k, on := range s.Active {
		if !on {
			continue
		}
		i := p.Pairs[k].Switch
		j := s.SwitchController[i]
		if j < 0 {
			return nil, false
		}
		pt[md.z[k]] = 1
		counts[i][j]++
		pro[p.Pairs[k].Flow] += p.Pairs[k].PBar
	}
	r := math.MaxInt
	for _, v := range pro {
		if v < r {
			r = v
		}
	}
	if r < 1 {
		return nil, false // cannot satisfy the r >= 1 hard constraint
	}
	pt[md.rVar] = float64(r)
	for i, j := range s.SwitchController {
		if j >= 0 {
			pt[md.x[i][j]] = 1
		}
	}
	for i := range counts {
		for j := range counts[i] {
			pt[md.cij[i][j]] = counts[i][j]
		}
	}
	return pt, true
}

// Sensitivity is the LP-relaxation shadow-price view of an instance: how
// much the (relaxed) optimal objective would improve per extra unit of each
// resource. It identifies which surviving controller's capacity — or the
// delay budget — is the recovery bottleneck.
type Sensitivity struct {
	// CapacityPrice[j] is controller j's capacity shadow price.
	CapacityPrice []float64
	// BudgetPrice is the delay budget's shadow price.
	BudgetPrice float64
	// Objective is the relaxation's optimal objective (an upper bound on
	// the integer optimum).
	Objective float64
}

// Sensitivities solves the LP relaxation of the compact model and returns
// the capacity and budget shadow prices.
func Sensitivities(p *core.Problem) (*Sensitivity, error) {
	return SensitivitiesWith(p, lp.Options{})
}

// SensitivitiesWith is Sensitivities with explicit LP solver options; the
// scale benchmarks use it to force a factorization choice.
func SensitivitiesWith(p *core.Problem, lpOpts lp.Options) (*Sensitivity, error) {
	md, err := build(p)
	if err != nil {
		return nil, err
	}
	sol, err := md.m.SolveRelaxation(lpOpts)
	if err != nil {
		return nil, fmt.Errorf("opt: relaxation: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("%w: relaxation %v", ErrNoSolution, sol.Status)
	}
	s := &Sensitivity{
		CapacityPrice: make([]float64, p.NumControllers),
		BudgetPrice:   sol.Duals[md.budgetRow],
		Objective:     sol.Objective,
	}
	for j, row := range md.capRows {
		s.CapacityPrice[j] = sol.Duals[row]
	}
	return s, nil
}

// repair turns a (generally fractional) relaxation point into an integer-
// feasible model point, or nil when it cannot. It tries two switch→controller
// mappings — the LP-preferred one, then a capacity-aware nearest-fit — and
// for each covers every flow with its cheapest affordable pair (the r >= 1
// hard constraint) before spending leftover capacity on high-p̄ pairs within
// the delay budget.
func (md *model) repair(relax []float64) []float64 {
	if pt := md.repairWith(md.lpMapping(relax)); pt != nil {
		return pt
	}
	return md.repairWith(md.fitMapping())
}

// lpMapping maps each switch to the argmax of its relaxed x row, ties and
// all-zero rows resolved toward the nearest controller.
func (md *model) lpMapping(relax []float64) []int {
	p := md.p
	ctrl := make([]int, p.NumSwitches)
	for i := range ctrl {
		ctrl[i] = -1
		best := 0.0
		for _, j := range p.NearestControllers(i) {
			if v := relax[md.x[i][j]]; v > best+1e-9 {
				best, ctrl[i] = v, j
			}
		}
		if ctrl[i] < 0 {
			ctrl[i] = p.NearestControllers(i)[0]
		}
	}
	return ctrl
}

// fitMapping assigns switches, largest pair count first, to the nearest
// controller whose uncommitted capacity covers the switch's pair count,
// falling back to the controller with the most uncommitted capacity.
func (md *model) fitMapping() []int {
	p := md.p
	ctrl := make([]int, p.NumSwitches)
	virt := make([]int, p.NumControllers)
	copy(virt, p.Rest)
	order := make([]int, p.NumSwitches)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.EligiblePairCount(order[a]) > p.EligiblePairCount(order[b])
	})
	for _, i := range order {
		ctrl[i] = -1
		for _, j := range p.NearestControllers(i) {
			if virt[j] >= p.EligiblePairCount(i) {
				ctrl[i] = j
				break
			}
		}
		if ctrl[i] < 0 {
			for j := 0; j < p.NumControllers; j++ {
				if ctrl[i] < 0 || virt[j] > virt[ctrl[i]] {
					ctrl[i] = j
				}
			}
		}
		virt[ctrl[i]] -= p.EligiblePairCount(i)
		if virt[ctrl[i]] < 0 {
			virt[ctrl[i]] = 0
		}
	}
	return ctrl
}

// repairWith builds a feasible model point under a fixed mapping, or nil.
func (md *model) repairWith(ctrl []int) []float64 {
	p := md.p
	N, M := p.NumSwitches, p.NumControllers
	rest := make([]int, M)
	copy(rest, p.Rest)
	used := 0.0
	active := make([]bool, len(p.Pairs))
	pro := make([]int, p.NumFlows)

	// Cover flows, fewest-options first, via their cheapest-delay pair.
	order := make([]int, p.NumFlows)
	for l := range order {
		order[l] = l
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(p.PairsOfFlow(order[a])) < len(p.PairsOfFlow(order[b]))
	})
	for _, l := range order {
		bestK, bestD := -1, math.Inf(1)
		for _, k := range p.PairsOfFlow(l) {
			i := p.Pairs[k].Switch
			if rest[ctrl[i]] <= 0 {
				continue
			}
			if d := p.Delay[i][ctrl[i]]; d < bestD {
				bestD, bestK = d, k
			}
		}
		if bestK < 0 || used+bestD > p.BudgetMs+1e-9 {
			return nil
		}
		i := p.Pairs[bestK].Switch
		rest[ctrl[i]]--
		used += bestD
		active[bestK] = true
		pro[l] += p.Pairs[bestK].PBar
	}

	// Spend what remains on the highest-p̄ pairs.
	byPBar := make([]int, 0, len(p.Pairs))
	for k := range p.Pairs {
		if !active[k] {
			byPBar = append(byPBar, k)
		}
	}
	sort.SliceStable(byPBar, func(a, b int) bool {
		return p.Pairs[byPBar[a]].PBar > p.Pairs[byPBar[b]].PBar
	})
	for _, k := range byPBar {
		i := p.Pairs[k].Switch
		d := p.Delay[i][ctrl[i]]
		if rest[ctrl[i]] <= 0 || used+d > p.BudgetMs+1e-9 {
			continue
		}
		rest[ctrl[i]]--
		used += d
		active[k] = true
		pro[p.Pairs[k].Flow] += p.Pairs[k].PBar
	}

	// Assemble the model point.
	pt := make([]float64, md.m.NumVars())
	counts := make([][]int, N)
	for i := range counts {
		counts[i] = make([]int, M)
	}
	r := math.MaxInt
	for _, v := range pro {
		if v < r {
			r = v
		}
	}
	if r < 1 {
		return nil
	}
	pt[md.rVar] = float64(r)
	for k, on := range active {
		if on {
			pt[md.z[k]] = 1
			counts[p.Pairs[k].Switch][ctrl[p.Pairs[k].Switch]]++
		}
	}
	for i := 0; i < N; i++ {
		if counts[i][ctrl[i]] > 0 {
			pt[md.x[i][ctrl[i]]] = 1
			pt[md.cij[i][ctrl[i]]] = float64(counts[i][ctrl[i]])
		}
	}
	return pt
}

// extract converts a model point into a core.Solution.
func (md *model) extract(x []float64) *core.Solution {
	p := md.p
	sol := core.NewSolution("Optimal", p)
	for i := 0; i < p.NumSwitches; i++ {
		for j := 0; j < p.NumControllers; j++ {
			if math.Round(x[md.x[i][j]]) == 1 {
				sol.SwitchController[i] = j
				break
			}
		}
	}
	for k := range p.Pairs {
		if math.Round(x[md.z[k]]) == 1 {
			sol.Active[k] = true
		}
	}
	sol.UnmapIdle(p) // cosmetic, mirrors PM
	return sol
}
