package mip

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pmedic/internal/lp"
)

// buildRandomBinary constructs a random binary program with nv variables and
// a handful of knapsack-style rows.
func buildRandomBinary(rng *rand.Rand, nv int) *Model {
	m := NewModel(lp.Maximize)
	for v := 0; v < nv; v++ {
		m.AddBinary(float64(rng.Intn(31)-10), "")
	}
	nr := 2 + rng.Intn(5)
	for r := 0; r < nr; r++ {
		terms := make([]lp.Term, 0, nv)
		for v := 0; v < nv; v++ {
			c := float64(rng.Intn(9) - 3)
			if c != 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: c})
			}
		}
		op := lp.LE
		if rng.Intn(3) == 0 {
			op = lp.GE
		}
		rhs := float64(rng.Intn(int(2+math.Sqrt(float64(nv)))*4) - 2)
		if err := m.AddRow(op, rhs, terms...); err != nil {
			panic(err)
		}
	}
	return m
}

// TestSearchMatchesExhaustive checks the search against brute-force
// enumeration on small binaries. Unbudgeted, it must prove the optimum (or
// infeasibility). Under every node budget from 1 to 20 it must stay inside
// the budget, and what it claims must hold: a feasible incumbent is no better
// than the optimum and its bound no worse, optimal is claimed only at the
// optimum, and infeasible only when no point exists. Every search runs at
// GOMAXPROCS 1, 2 and 8 and must return the same result bit for bit.
func TestSearchMatchesExhaustive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(17))
	statuses := map[Status]int{}
	for trial := 0; trial < 40; trial++ {
		nv := 3 + rng.Intn(12)
		m := buildRandomBinary(rng, nv)
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nv; mask++ {
			x := make([]float64, nv)
			for v := 0; v < nv; v++ {
				if mask&(1<<v) != 0 {
					x[v] = 1
				}
			}
			if obj, ok := m.checkPoint(x, zeros(nv), ones(nv)); ok && obj > best {
				best = obj
			}
		}
		infeasible := math.IsInf(best, -1)

		res, err := solveAtEachProcs(m, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch {
		case infeasible && res.Status != StatusInfeasible:
			t.Fatalf("trial %d: got %v, want infeasible", trial, res.Status)
		case !infeasible && res.Status != StatusOptimal:
			t.Fatalf("trial %d: got %v, want optimal", trial, res.Status)
		case !infeasible && math.Abs(res.Objective-best) > 1e-6:
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, best)
		}

		for maxNodes := 1; maxNodes <= 20; maxNodes++ {
			res, err := solveAtEachProcs(m, Options{MaxNodes: maxNodes})
			if err != nil {
				t.Fatalf("trial %d, %d nodes: %v", trial, maxNodes, err)
			}
			statuses[res.Status]++
			if res.Nodes > maxNodes {
				t.Fatalf("trial %d: explored %d nodes on a budget of %d", trial, res.Nodes, maxNodes)
			}
			switch res.Status {
			case StatusOptimal:
				if infeasible || math.Abs(res.Objective-best) > 1e-6 {
					t.Fatalf("trial %d, %d nodes: optimal at %v, brute force %v", trial, maxNodes, res.Objective, best)
				}
			case StatusFeasible:
				if infeasible || res.Objective > best+1e-6 || best > res.Bound+1e-6 {
					t.Fatalf("trial %d, %d nodes: feasible %v with bound %v, brute force %v", trial, maxNodes, res.Objective, res.Bound, best)
				}
			case StatusInfeasible:
				if !infeasible {
					t.Fatalf("trial %d, %d nodes: infeasible, brute force %v", trial, maxNodes, best)
				}
			case StatusUnknown:
			default:
				t.Fatalf("trial %d, %d nodes: status %v", trial, maxNodes, res.Status)
			}
		}
	}
	t.Logf("budgeted outcomes: %v", statuses)
	if statuses[StatusFeasible] == 0 || statuses[StatusOptimal] == 0 {
		t.Fatalf("budgeted outcomes %v: want both feasible and optimal among them", statuses)
	}
}

// solveAtEachProcs runs the search at GOMAXPROCS 1, 2 and 8 and returns the
// first result, or an error if another differs from it: the frontier's
// relaxations are solved in parallel, but the tree may not depend on it.
func solveAtEachProcs(m *Model, opts Options) (*Result, error) {
	var first *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := m.Solve(opts)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		} else if got, want := resultString(res), resultString(first); got != want {
			return nil, fmt.Errorf("GOMAXPROCS %d: result\n%s\ndiffers from GOMAXPROCS 1's\n%s", procs, got, want)
		}
	}
	return first, nil
}

// resultString prints a result, Runtime aside, with every float64 in its
// shortest round-trip form: two results print alike only if their status,
// node count, objective, bound, gap, X and LP work are the same bits.
func resultString(r *Result) string {
	cp := *r
	cp.Runtime = 0
	return fmt.Sprintf("%+v", cp)
}

func zeros(n int) []float64 { return make([]float64, n) }

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}
