package mip

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pmedic/internal/lp"
)

func TestSolveKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17)
	// vs b=1,c=1 (20, weight 6 OK) -> optimal 20.
	m := NewModel(lp.Maximize)
	a := m.AddBinary(10, "a")
	b := m.AddBinary(13, "b")
	c := m.AddBinary(7, "c")
	if err := m.AddRow(lp.LE, 6, lp.Term{Var: a, Coeff: 3}, lp.Term{Var: b, Coeff: 4}, lp.Term{Var: c, Coeff: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-20) > 1e-6 {
		t.Fatalf("objective %v, want 20", res.Objective)
	}
}

func TestSolveIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 5, x integer -> 2 (LP gives 2.5).
	m := NewModel(lp.Maximize)
	x := m.AddVar(0, 10, 1, "x", true)
	if err := m.AddRow(lp.LE, 5, lp.Term{Var: x, Coeff: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 2", res.Status, res.Objective)
	}
}

func TestSolveMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x + y <= 3.5, x <= 2.2.
	// x=2, y=1.5 -> 5.5.
	m := NewModel(lp.Maximize)
	x := m.AddVar(0, 2.2, 2, "x", true)
	y := m.AddVar(0, math.Inf(1), 1, "y", false)
	if err := m.AddRow(lp.LE, 3.5, lp.Term{Var: x, Coeff: 1}, lp.Term{Var: y, Coeff: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-5.5) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 5.5", res.Status, res.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// Binary x + y = 1.5 has no integer solution but an LP one; B&B must
	// prove infeasibility.
	m := NewModel(lp.Maximize)
	x := m.AddBinary(1, "x")
	y := m.AddBinary(1, "y")
	if err := m.AddRow(lp.EQ, 1.5, lp.Term{Var: x, Coeff: 1}, lp.Term{Var: y, Coeff: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestSolveMinimize(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 3, binary×{0..4}: x binary, y integer 0..4.
	// Cheapest: y=3 (6) vs x=1,y=2 (7) -> 6.
	m := NewModel(lp.Minimize)
	x := m.AddBinary(3, "x")
	y := m.AddVar(0, 4, 2, "y", true)
	if err := m.AddRow(lp.GE, 3, lp.Term{Var: x, Coeff: 1}, lp.Term{Var: y, Coeff: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-6) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 6", res.Status, res.Objective)
	}
}

func TestSolveTimeLimitReturnsIncumbentOrUnknown(t *testing.T) {
	m := NewModel(lp.Maximize)
	rng := rand.New(rand.NewSource(3))
	n := 24
	vars := make([]int, n)
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary(float64(1+rng.Intn(40)), "")
		terms[i] = lp.Term{Var: vars[i], Coeff: float64(1 + rng.Intn(20))}
	}
	if err := m.AddRow(lp.LE, 50, terms...); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(Options{TimeLimit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Status {
	case StatusOptimal, StatusFeasible, StatusUnknown:
		// All legitimate under a 1 ms budget.
	default:
		t.Fatalf("unexpected status %v", res.Status)
	}
	if res.Status == StatusFeasible && res.X == nil {
		t.Fatal("feasible status without incumbent")
	}
}

// TestRandomBinaryExact cross-checks small random binary programs against
// exhaustive enumeration.
func TestRandomBinaryExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8) // up to 10 binaries -> 1024 points
		m := NewModel(lp.Maximize)
		obj := make([]float64, n)
		for v := 0; v < n; v++ {
			obj[v] = float64(rng.Intn(21) - 10)
			m.AddBinary(obj[v], "")
		}
		type rrow struct {
			coeffs []float64
			op     lp.Op
			rhs    float64
		}
		var rows []rrow
		nr := 1 + rng.Intn(4)
		for r := 0; r < nr; r++ {
			coeffs := make([]float64, n)
			terms := make([]lp.Term, 0, n)
			for v := 0; v < n; v++ {
				c := float64(rng.Intn(9) - 4)
				coeffs[v] = c
				if c != 0 {
					terms = append(terms, lp.Term{Var: v, Coeff: c})
				}
			}
			var op lp.Op
			rhs := float64(rng.Intn(11) - 3)
			if rng.Intn(2) == 0 {
				op = lp.LE
			} else {
				op = lp.GE
			}
			if err := m.AddRow(op, rhs, terms...); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, rrow{coeffs, op, rhs})
		}
		// Brute force.
		best := math.Inf(-1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, r := range rows {
				val := 0.0
				for v := 0; v < n; v++ {
					if mask&(1<<v) != 0 {
						val += r.coeffs[v]
					}
				}
				if (r.op == lp.LE && val > r.rhs) || (r.op == lp.GE && val < r.rhs) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			val := 0.0
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					val += obj[v]
				}
			}
			if val > best {
				best = val
			}
		}
		res, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(best, -1) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: status %v, brute force says infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, res.Status)
		}
		if math.Abs(res.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, best)
		}
		// Returned point must be binary and feasible.
		for v := 0; v < n; v++ {
			if math.Abs(res.X[v]-math.Round(res.X[v])) > 1e-6 {
				t.Fatalf("trial %d: x[%d]=%v not integral", trial, v, res.X[v])
			}
		}
	}
}

// TestDroppedNodeIsNotAProof is the false-optimality regression: with one
// simplex iteration per phase the root relaxation of a 6-item knapsack ends
// at the LP iteration limit and the node is dropped. The tree then empties,
// but the search saw nothing: the incumbent handed in (value 4) is not the
// optimum (24), so the result must say feasible, not optimal, and keep the
// dropped node's bound — the root's, which is infinite.
func TestDroppedNodeIsNotAProof(t *testing.T) {
	weights := []float64{5, 4, 6, 3, 7, 2}
	values := []float64{10, 4, 8, 6, 9, 8}
	build := func() *Model {
		m := NewModel(lp.Maximize)
		terms := make([]lp.Term, len(weights))
		for i := range weights {
			terms[i] = lp.Term{Var: m.AddBinary(values[i], ""), Coeff: weights[i]}
		}
		if err := m.AddRow(lp.LE, 12, terms...); err != nil {
			t.Fatal(err)
		}
		return m
	}
	incumbent := []float64{0, 1, 0, 0, 0, 0} // value 4

	full, err := build().Solve(Options{Incumbent: incumbent})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusOptimal || math.Abs(full.Objective-24) > 1e-9 {
		t.Fatalf("unrestricted solve: %v obj %v, want optimal 24", full.Status, full.Objective)
	}
	if full.LP.Iters == 0 || full.LP.Refactors == 0 || full.LP.Cold == 0 {
		t.Fatalf("LP counters not summed: %+v", full.LP)
	}

	res, err := build().Solve(Options{Incumbent: incumbent, LP: lp.Options{MaxIters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible {
		t.Fatalf("status %v with a dropped root, want feasible", res.Status)
	}
	if res.Objective != 4 || !math.IsInf(res.Bound, 1) || !math.IsInf(res.Gap, 1) {
		t.Fatalf("obj %v bound %v gap %v, want 4, +Inf, +Inf", res.Objective, res.Bound, res.Gap)
	}

	// Without an incumbent a dropped root is unknown, not infeasible.
	res, err = build().Solve(Options{LP: lp.Options{MaxIters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status %v with a dropped root and no incumbent, want unknown", res.Status)
	}
}
