package opt

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"pmedic/internal/core"
)

// smallProblem builds an instance small enough for the exact solve to finish
// in milliseconds.
func smallProblem(t *testing.T, rng *rand.Rand, n, m, l int) *core.Problem {
	t.Helper()
	p := &core.Problem{
		NumSwitches:    n,
		NumControllers: m,
		NumFlows:       l,
		Rest:           make([]int, m),
		Gamma:          make([]int, n),
		Delay:          make([][]float64, n),
	}
	for j := range p.Rest {
		p.Rest[j] = 2 + rng.Intn(6)
	}
	for i := range p.Delay {
		row := make([]float64, m)
		for j := range row {
			row[j] = 0.5 + rng.Float64()*4
		}
		p.Delay[i] = row
	}
	for fl := 0; fl < l; fl++ {
		p.Pairs = append(p.Pairs, core.Pair{Switch: rng.Intn(n), Flow: fl, PBar: 2 + rng.Intn(5)})
	}
	for e := 0; e < l; e++ {
		p.Pairs = append(p.Pairs, core.Pair{Switch: rng.Intn(n), Flow: rng.Intn(l), PBar: 2 + rng.Intn(5)})
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i := range p.Gamma {
		p.Gamma[i] = p.EligiblePairCount(i) + rng.Intn(4)
	}
	p.BudgetMs = p.IdealDelayBudget()
	return p
}

func TestSolveSmallExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := smallProblem(t, rng, 2, 2, 4)
	sol, err := Solve(p, Options{TimeLimit: 20 * time.Second})
	if err != nil {
		if errors.Is(err, ErrNoSolution) {
			t.Skip("instance infeasible under r>=1; acceptable for this seed")
		}
		t.Fatal(err)
	}
	if err := sol.Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if sol.Algorithm != "Optimal" {
		t.Fatalf("algorithm = %q", sol.Algorithm)
	}
}

// TestOptimalDominatesHeuristicsWhenProved: on instances it solves to proven
// optimality, Optimal's objective must be >= every feasible heuristic's
// objective (comparing only budget-feasible, full-coverage heuristic runs,
// which are feasible points of the same program).
func TestOptimalDominatesHeuristicsWhenProved(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 20 && tested < 8; trial++ {
		p := smallProblem(t, rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(6))
		res, err := Search(p, Options{TimeLimit: 30 * time.Second})
		if errors.Is(err, ErrNoSolution) || (err == nil && !res.Proved()) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		optSol := res.Solution
		optRep, err := core.Evaluate(p, optSol, core.EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pmSol, err := core.PM(p)
		if err != nil {
			t.Fatal(err)
		}
		pmRep, err := core.Evaluate(p, pmSol, core.EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pmRep.WithinBudget && pmRep.MinProg >= 1 && pmRep.Objective > optRep.Objective+1e-6 {
			t.Fatalf("trial %d: PM objective %v beats proven Optimal %v",
				trial, pmRep.Objective, optRep.Objective)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no instance was solvable; generator is broken")
	}
}

func TestSolveInfeasibleWhenCapacityTooSmall(t *testing.T) {
	// Two flows, one controller with capacity 1, and r >= 1 requires both.
	p := &core.Problem{
		NumSwitches:    1,
		NumControllers: 1,
		NumFlows:       2,
		Rest:           []int{1},
		Gamma:          []int{5},
		Delay:          [][]float64{{1}},
		Pairs: []core.Pair{
			{Switch: 0, Flow: 0, PBar: 2},
			{Switch: 0, Flow: 1, PBar: 2},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	if _, err := Solve(p, Options{TimeLimit: 10 * time.Second}); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("error = %v, want ErrNoSolution", err)
	}
}

func TestSolveUsesWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := smallProblem(t, rng, 2, 2, 5)
	warm, err := core.PM(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{TimeLimit: 20 * time.Second, Warm: warm})
	if errors.Is(err, ErrNoSolution) {
		t.Skip("instance infeasible for this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	warmRep, err := core.Evaluate(p, warm, core.EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optRep, err := core.Evaluate(p, sol, core.EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmRep.WithinBudget && warmRep.MinProg >= 1 && optRep.Objective < warmRep.Objective-1e-6 {
		t.Fatalf("Optimal %v below its own warm start %v", optRep.Objective, warmRep.Objective)
	}
}

func TestSolveRejectsEmptyPairs(t *testing.T) {
	p := &core.Problem{
		NumSwitches:    1,
		NumControllers: 1,
		NumFlows:       1,
		Rest:           []int{1},
		Gamma:          []int{1},
		Delay:          [][]float64{{1}},
	}
	// Finalize fails on zero pairs only if a pair is invalid; an empty pair
	// set finalizes fine but opt must reject it.
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(p, Options{}); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("error = %v, want ErrNoSolution", err)
	}
}

// TestSearchRefusesNegativeTimeLimit: a negative budget is an error before
// any search, not a search without a clock (mip reads only a positive limit).
func TestSearchRefusesNegativeTimeLimit(t *testing.T) {
	p := smallProblem(t, rand.New(rand.NewSource(1)), 2, 2, 4)
	res, err := Search(p, Options{TimeLimit: -time.Second})
	if err == nil || errors.Is(err, ErrNoSolution) || res != nil {
		t.Fatalf("Search with TimeLimit -1s = %v, %v; want no result and an error other than ErrNoSolution", res, err)
	}
}

func TestSolveRespectsBudgetConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		p := smallProblem(t, rng, 2, 2, 4)
		sol, err := Solve(p, Options{TimeLimit: 20 * time.Second})
		if errors.Is(err, ErrNoSolution) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Evaluate(p, sol, core.EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.WithinBudget {
			t.Fatalf("trial %d: Optimal exceeded the delay budget: %v > %v",
				trial, rep.OverheadMs, p.BudgetMs)
		}
		if rep.MinProg < 1 {
			t.Fatalf("trial %d: Optimal violated r >= 1", trial)
		}
	}
}

func TestSensitivities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := smallProblem(t, rng, 2, 2, 5)
	s, err := Sensitivities(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CapacityPrice) != p.NumControllers {
		t.Fatalf("prices = %v", s.CapacityPrice)
	}
	// Shadow prices of <=-resources in a maximization are non-negative.
	for j, price := range s.CapacityPrice {
		if price < -1e-8 {
			t.Fatalf("controller %d price %v < 0", j, price)
		}
	}
	if s.BudgetPrice < -1e-8 {
		t.Fatalf("budget price %v < 0", s.BudgetPrice)
	}
	// The relaxation bounds any integer-feasible solution's objective.
	sol, err := Solve(p, Options{TimeLimit: 20 * time.Second})
	if errors.Is(err, ErrNoSolution) {
		t.Skip("integer model infeasible for this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Evaluate(p, sol, core.EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objective > s.Objective+1e-6 {
		t.Fatalf("integer objective %v exceeds relaxation bound %v", rep.Objective, s.Objective)
	}
}

func TestSensitivitiesTightCapacityHasPositivePrice(t *testing.T) {
	// One controller, capacity 2, three flows wanting pairs: capacity binds,
	// so its shadow price must be strictly positive.
	p := &core.Problem{
		NumSwitches:    1,
		NumControllers: 1,
		NumFlows:       2,
		Rest:           []int{2},
		Gamma:          []int{5},
		Delay:          [][]float64{{1}},
		Pairs: []core.Pair{
			{Switch: 0, Flow: 0, PBar: 2},
			{Switch: 0, Flow: 1, PBar: 3},
			{Switch: 0, Flow: 1, PBar: 4},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = 1e9
	s, err := Sensitivities(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.CapacityPrice[0] <= 0 {
		t.Fatalf("binding capacity has price %v, want > 0", s.CapacityPrice[0])
	}
}
