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
// figure prints them. optBudget bounds each exact solve (0 = opt's default).
func Comparators(optBudget time.Duration, skipOptimal bool) []Algorithm {
	heuristic := func(name string, solve func(*core.Problem) (*core.Solution, error)) Algorithm {
		return Algorithm{Name: name, Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return solve(inst.Problem)
		}}
	}
	algs := []Algorithm{heuristic("PM", core.PM), heuristic("RetroFlow", core.RetroFlow), heuristic("PG", core.PG)}
	if skipOptimal {
		return algs
	}
	// Optimal warm-starts from PM's deterministic plan for the case; a warm
	// start that PM could not give is one it does without.
	return append(algs, Algorithm{Name: "Optimal", Run: func(inst *scenario.Instance) (*core.Solution, error) {
		warm, _ := core.PM(inst.Problem)
		sol, err := opt.Solve(inst.Problem, opt.Options{TimeLimit: optBudget, Warm: warm})
		if errors.Is(err, opt.ErrNoSolution) {
			return nil, fmt.Errorf("%w: %v", ErrNoResult, err)
		}
		return sol, err
	}})
}
