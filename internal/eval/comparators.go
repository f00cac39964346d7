package eval

import (
	"errors"
	"fmt"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
)

// Comparators is the paper's comparator table — PM, RetroFlow, PG and, unless
// skipOptimal, the exact Optimal warm-started from PM — in the order every
// figure prints them. lambda > 0 overrides the objective weight of each case
// (0 keeps the default); optBudget bounds each exact solve (0 = opt's
// default) and optWorkers its branch & bound workers (0 = one per CPU).
func Comparators(lambda float64, optBudget time.Duration, optWorkers int, skipOptimal bool) []Algorithm {
	problem := func(inst *scenario.Instance) *core.Problem {
		if lambda > 0 {
			inst.Problem.Lambda = lambda
		}
		return inst.Problem
	}
	heuristic := func(name string, solve func(*core.Problem) (*core.Solution, error)) Algorithm {
		return Algorithm{Name: name, Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return solve(problem(inst))
		}}
	}
	algs := []Algorithm{heuristic("PM", core.PM), heuristic("RetroFlow", core.RetroFlow), heuristic("PG", core.PG)}
	if skipOptimal {
		return algs
	}
	// A warm start that PM could not give is one Optimal does without.
	exact := func(inst *scenario.Instance, warm *core.Solution) (*core.Solution, error) {
		if warm == nil {
			warm, _ = core.PM(problem(inst))
		}
		sol, err := opt.Solve(problem(inst), opt.Options{TimeLimit: optBudget, Workers: optWorkers, Warm: warm})
		if errors.Is(err, opt.ErrNoSolution) {
			return nil, fmt.Errorf("%w: %v", ErrNoResult, err)
		}
		return sol, err
	}
	return append(algs, Algorithm{
		Name: "Optimal",
		Run:  func(inst *scenario.Instance) (*core.Solution, error) { return exact(inst, nil) },
		// In a sweep the harness hands over the PM solution already computed
		// for the case, so the warm start is free.
		RunSeeded: func(inst *scenario.Instance, prior map[string]*core.Solution) (*core.Solution, error) {
			return exact(inst, prior["PM"])
		},
	})
}
