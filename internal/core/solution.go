package core

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Solution is the output of a recovery algorithm for one Problem.
//
// Two families of algorithms share this type:
//
//   - Switch-mapping solutions (PM, Optimal, RetroFlow) fill
//     SwitchController; the controller charged for an active pair is the one
//     its switch is mapped to. RetroFlow additionally sets SwitchLevel: a
//     whole recovered switch costs γ_i capacity regardless of how many of
//     its pairs are eligible.
//   - Flow-mapping solutions (PG) fill PairController directly: each active
//     pair may be charged to a different controller, which is exactly the
//     fine-grained mapping the middle layer buys.
type Solution struct {
	// Algorithm names the producer, e.g. "PM", "RetroFlow", "PG", "Optimal".
	Algorithm string
	// SwitchController[i] is the controller offline switch i is mapped to,
	// or -1 if the switch stays unmapped (legacy mode for all its flows).
	SwitchController []int
	// Active[k] reports whether Pairs[k] is configured in SDN mode.
	Active []bool
	// PairController[k] overrides the charged controller per active pair;
	// nil for switch-mapping solutions.
	PairController []int
	// SwitchLevel selects whole-switch capacity accounting (γ_i per mapped
	// switch) instead of per-active-pair accounting.
	SwitchLevel bool
	// MiddleLayer selects the middle-layer delay model (Problem-independent;
	// evaluation uses the scenario's middle-layer delay matrix when set).
	MiddleLayer bool
	// Runtime is the wall-clock time the algorithm took.
	Runtime time.Duration
}

// NewSolution returns an all-legacy (nothing recovered) solution shell for p.
func NewSolution(algorithm string, p *Problem) *Solution {
	s := &Solution{
		Algorithm:        algorithm,
		SwitchController: make([]int, p.NumSwitches),
		Active:           make([]bool, len(p.Pairs)),
	}
	for i := range s.SwitchController {
		s.SwitchController[i] = -1
	}
	return s
}

// UnmapIdle unmaps every switch with no active pair: mapping it would hold a
// controller session for nothing. It is PM's terminal invariant, which the
// exact solver's extraction mirrors.
func (s *Solution) UnmapIdle(p *Problem) {
	for i := range s.SwitchController {
		if lo, hi := p.SwitchRun(i); !slices.Contains(s.Active[lo:hi], true) {
			s.SwitchController[i] = -1
		}
	}
}

// ErrInfeasible reports a solution that violates the problem's constraints.
var ErrInfeasible = errors.New("core: infeasible solution")

// tally is the one reading of a solution behind Verify, ControllerLoads and
// Evaluate: a single pass over Active in pair order that checks every active
// pair's controller and accumulates the rest on the way.
type tally struct {
	// loads[j] is the capacity consumed on controller j.
	loads []int
	// recoveredSwitches counts mapped switches, or for flow-mapping solutions
	// switches with an active pair.
	recoveredSwitches int
	// pro[l] is pro^l and overheadMs the total control propagation overhead,
	// summed in pair order (switch order for switch-level solutions). Both
	// are filled only when the pass is given a delay matrix.
	pro        []int
	overheadMs float64
}

// tally reads s against p, pricing overhead on the switch×controller matrix
// delay; a nil delay asks for loads and checks alone. It reports an active
// pair charged to no valid controller; dimensions are the caller's to check.
func (s *Solution) tally(p *Problem, delay [][]float64) (tally, error) {
	t := tally{loads: make([]int, p.NumControllers)}
	if delay != nil {
		t.pro = make([]int, p.NumFlows)
	}
	for i, ji := range s.SwitchController {
		if s.SwitchLevel && ji >= 0 {
			t.loads[ji] += p.Gamma[i]
			if delay != nil {
				t.overheadMs += float64(p.Gamma[i]) * delay[i][ji]
			}
		}
		lo, hi := p.SwitchRun(i)
		touched := false
		for k := lo; k < hi; k++ {
			if !s.Active[k] {
				continue
			}
			touched = true
			j := ji
			if s.PairController != nil {
				j = s.PairController[k]
			}
			if s.SwitchLevel {
				// Active pairs must be consistent: only at mapped switches.
				if j < 0 {
					return t, fmt.Errorf("%w: active pair %d at unmapped switch %d", ErrInfeasible, k, i)
				}
			} else {
				if j < 0 || j >= p.NumControllers {
					return t, fmt.Errorf("%w: active pair %d charged to controller %d", ErrInfeasible, k, j)
				}
				t.loads[j]++
			}
			if delay != nil {
				if !s.SwitchLevel {
					t.overheadMs += delay[i][j]
				}
				t.pro[p.Pairs[k].Flow] += p.Pairs[k].PBar
			}
		}
		if s.PairController != nil && !s.SwitchLevel {
			if touched {
				t.recoveredSwitches++
			}
		} else if ji >= 0 {
			t.recoveredSwitches++
		}
	}
	return t, nil
}

// checked is tally behind Verify's checks: dimensions and mapping ranges
// before the pass, capacities after it.
func (s *Solution) checked(p *Problem, delay [][]float64) (tally, error) {
	if !p.finalized() {
		return tally{}, fmt.Errorf("%w: problem not finalized", ErrInvalidProblem)
	}
	if len(s.SwitchController) != p.NumSwitches {
		return tally{}, fmt.Errorf("%w: len(SwitchController)=%d, want %d", ErrInfeasible, len(s.SwitchController), p.NumSwitches)
	}
	if len(s.Active) != len(p.Pairs) {
		return tally{}, fmt.Errorf("%w: len(Active)=%d, want %d", ErrInfeasible, len(s.Active), len(p.Pairs))
	}
	if s.PairController != nil && len(s.PairController) != len(p.Pairs) {
		return tally{}, fmt.Errorf("%w: len(PairController)=%d, want %d", ErrInfeasible, len(s.PairController), len(p.Pairs))
	}
	for i, j := range s.SwitchController {
		if j < -1 || j >= p.NumControllers {
			return tally{}, fmt.Errorf("%w: switch %d mapped to controller %d", ErrInfeasible, i, j)
		}
	}
	t, err := s.tally(p, delay)
	if err != nil {
		return t, err
	}
	for j, load := range t.loads {
		if load > p.Rest[j] {
			return t, fmt.Errorf("%w: controller %d load %d exceeds residual %d", ErrInfeasible, j, load, p.Rest[j])
		}
	}
	return t, nil
}

// Verify checks structural and capacity feasibility of s against p:
// dimensions match, every switch maps to at most one controller (encoded),
// every active pair is charged to a valid controller, and no controller
// exceeds its residual capacity. The delay budget is a soft constraint in
// the heuristics (as in the paper) and is reported, not enforced, here.
func (s *Solution) Verify(p *Problem) error {
	_, err := s.checked(p, nil)
	return err
}

// ControllerLoads returns the capacity consumed per controller. Switch-level
// solutions charge γ_i per mapped switch; per-flow solutions charge one unit
// per active pair to the pair's controller. An active pair whose controller
// is -1 is an encoding error.
func (s *Solution) ControllerLoads(p *Problem) ([]int, error) {
	t, err := s.tally(p, nil)
	if err != nil {
		return nil, err
	}
	return t.loads, nil
}

// FlowProgrammability returns pro^l for every flow: the sum of p̄ over the
// flow's active pairs.
func (s *Solution) FlowProgrammability(p *Problem) []int {
	pro := make([]int, p.NumFlows)
	for k, on := range s.Active {
		if on {
			pro[p.Pairs[k].Flow] += p.Pairs[k].PBar
		}
	}
	return pro
}

// Report aggregates the paper's per-instance metrics for one solution.
type Report struct {
	Algorithm string
	// FlowProg[l] is pro^l.
	FlowProg []int
	// MinProg is r: the minimum pro^l over all offline flows.
	MinProg int
	// TotalProg is Σ_l pro^l.
	TotalProg int
	// Objective is r + λ·TotalProg.
	Objective float64
	// RecoveredFlows counts flows with pro^l >= 1.
	RecoveredFlows int
	// RecoveredSwitches counts offline switches that take part in recovery:
	// mapped switches for switch-mapping solutions, switches with at least
	// one active pair for flow-mapping solutions.
	RecoveredSwitches int
	// ControllerLoad[j] is the capacity consumed on controller j.
	ControllerLoad []int
	// OverheadMs is the total control propagation overhead; PerFlowOverheadMs
	// divides it by RecoveredFlows (the paper's Fig. 4(d)/5(f)/6(f) metric).
	OverheadMs        float64
	PerFlowOverheadMs float64
	// WithinBudget reports OverheadMs <= Problem.BudgetMs.
	WithinBudget bool
	Runtime      time.Duration
}

// EvaluateOptions tunes metric computation.
type EvaluateOptions struct {
	// MiddleDelay, when non-nil and the solution has MiddleLayer set, is the
	// switch×controller delay matrix through the middle layer (propagation
	// via the layer plus its processing time), replacing Problem.Delay in
	// overhead accounting.
	MiddleDelay [][]float64
}

// Evaluate verifies s and computes its Report, reading the solution once.
func Evaluate(p *Problem, s *Solution, opts EvaluateOptions) (*Report, error) {
	delay := p.Delay
	if s.MiddleLayer && opts.MiddleDelay != nil {
		delay = opts.MiddleDelay
	}
	t, err := s.checked(p, delay)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Algorithm:         s.Algorithm,
		FlowProg:          t.pro,
		ControllerLoad:    t.loads,
		RecoveredSwitches: t.recoveredSwitches,
		OverheadMs:        t.overheadMs,
		Runtime:           s.Runtime,
	}
	r.MinProg = int(^uint(0) >> 1)
	for _, v := range t.pro {
		r.TotalProg += v
		if v >= 1 {
			r.RecoveredFlows++
		}
		if v < r.MinProg {
			r.MinProg = v
		}
	}
	if len(t.pro) == 0 {
		r.MinProg = 0
	}
	r.Objective = float64(r.MinProg) + Lambda*float64(r.TotalProg)
	if r.RecoveredFlows > 0 {
		r.PerFlowOverheadMs = r.OverheadMs / float64(r.RecoveredFlows)
	}
	r.WithinBudget = r.OverheadMs <= p.BudgetMs+1e-9
	return r, nil
}
