package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomModel generates a bounded LP that is feasible by construction about
// half the time (random RHS otherwise, so infeasible instances are also
// exercised), with controllable size and sparsity.
func randomModel(rng *rand.Rand, nv, nr int) *Model {
	m := NewModel(Maximize)
	point := make([]float64, nv)
	for v := 0; v < nv; v++ {
		ub := float64(1 + rng.Intn(9))
		if rng.Intn(4) == 0 {
			ub = math.Inf(1)
		}
		obj := float64(rng.Intn(21) - 10)
		if math.IsInf(ub, 1) && obj > 0 && rng.Intn(2) == 0 {
			obj = -obj // keep unbounded objectives rare but present
		}
		m.AddVar(0, ub, obj, "")
		hi := ub
		if math.IsInf(hi, 1) {
			hi = 6
		}
		point[v] = hi * rng.Float64()
	}
	for r := 0; r < nr; r++ {
		terms := make([]Term, 0, nv)
		val := 0.0
		for v := 0; v < nv; v++ {
			if rng.Intn(3) != 0 { // ~2/3 sparsity
				continue
			}
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				continue
			}
			terms = append(terms, Term{v, c})
			val += c * point[v]
		}
		if len(terms) == 0 {
			continue
		}
		var op Op
		var rhs float64
		switch rng.Intn(4) {
		case 0:
			op, rhs = LE, val+rng.Float64()*3
		case 1:
			op, rhs = GE, val-rng.Float64()*3
		case 2:
			op, rhs = EQ, val
		default:
			// Arbitrary RHS: possibly infeasible.
			op = []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs = float64(rng.Intn(21) - 10)
		}
		if err := m.AddRow(op, rhs, terms...); err != nil {
			panic(err)
		}
	}
	return m
}

// checkFeasible verifies x against the model's bounds and rows.
func checkFeasible(t *testing.T, m *Model, x []float64, label string) {
	t.Helper()
	const tol = 1e-6
	for v := range m.obj {
		if x[v] < m.lower[v]-tol || x[v] > m.upper[v]+tol {
			t.Fatalf("%s: x[%d]=%v outside [%v, %v]", label, v, x[v], m.lower[v], m.upper[v])
		}
	}
	for ri, r := range m.rows {
		val := 0.0
		for _, tm := range r.terms {
			val += tm.Coeff * x[tm.Var]
		}
		switch r.op {
		case LE:
			if val > r.rhs+tol {
				t.Fatalf("%s: row %d: %v > %v", label, ri, val, r.rhs)
			}
		case GE:
			if val < r.rhs-tol {
				t.Fatalf("%s: row %d: %v < %v", label, ri, val, r.rhs)
			}
		case EQ:
			if math.Abs(val-r.rhs) > tol {
				t.Fatalf("%s: row %d: %v != %v", label, ri, val, r.rhs)
			}
		}
	}
}

// TestSparseDenseEquivalence pins the eta-file engine to the dense explicit
// inverse on generated LPs: identical statuses, objectives within tolerance,
// and both returned points feasible. The two engines may land on different
// optimal vertices, so X is checked for feasibility, not equality.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 250; trial++ {
		nv := 1 + rng.Intn(12)
		nr := rng.Intn(15)
		m := randomModel(rng, nv, nr)
		dense, err := m.SolveWith(Options{Factorization: FactorDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sparse, err := m.SolveWith(Options{Factorization: FactorSparse})
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("trial %d: dense %v vs sparse %v", trial, dense.Status, sparse.Status)
		}
		if dense.Status != StatusOptimal {
			continue
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs sparse obj %v", trial, dense.Objective, sparse.Objective)
		}
		checkFeasible(t, m, dense.X, "dense")
		checkFeasible(t, m, sparse.X, "sparse")
	}
}

// TestSparseDenseEquivalenceLarge drives the equivalence on larger LPs, with
// the eta path as the zero Options select it.
func TestSparseDenseEquivalenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nv := 40 + rng.Intn(40)
		nr := 58 + rng.Intn(40)
		m := randomModel(rng, nv, nr)
		dense, err := m.SolveWith(Options{Factorization: FactorDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		auto, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("trial %d: auto: %v", trial, err)
		}
		if dense.Status != auto.Status {
			t.Fatalf("trial %d: dense %v vs auto %v", trial, dense.Status, auto.Status)
		}
		if dense.Status == StatusOptimal &&
			math.Abs(dense.Objective-auto.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs auto obj %v", trial, dense.Objective, auto.Objective)
		}
	}
}

// TestWarmStartReuse solves, re-solves with the exported basis under the
// same and tightened bounds, and checks the warm solve agrees with a cold
// solve. A same-bounds warm re-solve must converge without any simplex
// pivots beyond pricing confirmation.
func TestWarmStartReuse(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, 10, 3, "x")
	y := m.AddVar(0, 10, 5, "y")
	mustRow(t, m, LE, 4, Term{x, 1})
	mustRow(t, m, LE, 12, Term{y, 2})
	mustRow(t, m, LE, 18, Term{x, 3}, Term{y, 2})
	cold := solveOrFatal(t, m)
	wantStatus(t, cold, StatusOptimal)
	if cold.Basis == nil {
		t.Fatal("no exported basis at optimality")
	}

	warm, err := m.SolveWith(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatalf("warm re-solve: %v", err)
	}
	wantStatus(t, warm, StatusOptimal)
	wantObj(t, warm, cold.Objective)
	if warm.Iters > 1 {
		t.Fatalf("same-bounds warm start took %d iterations, want <= 1", warm.Iters)
	}

	// Tighten a bound that keeps the parent basis feasible.
	if err := m.SetBounds(y, 0, 6); err != nil {
		t.Fatal(err)
	}
	warm2, err := m.SolveWith(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatalf("warm tightened: %v", err)
	}
	cold2, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatalf("cold tightened: %v", err)
	}
	if warm2.Status != cold2.Status {
		t.Fatalf("warm %v vs cold %v", warm2.Status, cold2.Status)
	}
	if math.Abs(warm2.Objective-cold2.Objective) > 1e-6 {
		t.Fatalf("warm obj %v vs cold obj %v", warm2.Objective, cold2.Objective)
	}
}

// TestWarmStartRandom cross-checks warm-started solves against cold solves
// under random bound tightenings, for both factorizations: the same status
// and, when optimal, the same objective. Two trials in three split one
// variable around its value as a branch & bound child would; the third
// squeezes several variables away from their values, which often leaves
// nothing feasible — there the warm solve must say so too, and where it says
// so by certificate (a dual-simplex dead end, no cold start) the cold solve
// is the witness that the certificate told the truth.
func TestWarmStartRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	starts := make(map[Start]int)
	infeasible := 0
	for trial := 0; trial < 600; trial++ {
		nv := 2 + rng.Intn(10)
		nr := 1 + rng.Intn(10)
		m := randomModel(rng, nv, nr)
		fact := Factorization(trial % 3) // auto, dense, sparse round-robin
		base, err := m.SolveWith(Options{Factorization: fact})
		if err != nil {
			t.Fatalf("trial %d: base: %v", trial, err)
		}
		if base.Status != StatusOptimal || base.Basis == nil {
			continue
		}
		squeeze := 1
		if trial%3 == 2 {
			squeeze = 1 + rng.Intn(nv)
		}
		for ; squeeze > 0; squeeze-- {
			// Tighten one variable's bounds around an integer split of its
			// value.
			v := rng.Intn(nv)
			lo, hi, _ := m.Bounds(v)
			if rng.Intn(2) == 0 {
				hi = math.Floor(base.X[v])
			} else {
				lo = math.Ceil(base.X[v])
			}
			if lo > hi {
				continue
			}
			if err := m.SetBounds(v, lo, hi); err != nil {
				t.Fatalf("trial %d: SetBounds: %v", trial, err)
			}
		}
		warm, err := m.SolveWith(Options{Factorization: fact, Warm: base.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		cold, err := m.SolveWith(Options{Factorization: fact})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if cold.Start != StartCold {
			t.Fatalf("trial %d: a solve without a basis reports start %v", trial, cold.Start)
		}
		starts[warm.Start]++
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v (start %v) vs cold %v", trial, warm.Status, warm.Start, cold.Status)
		}
		switch warm.Status {
		case StatusOptimal:
			if math.Abs(warm.Objective-cold.Objective) > 1e-7*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: warm obj %v vs cold obj %v", trial, warm.Objective, cold.Objective)
			}
			checkFeasible(t, m, warm.X, "warm")
		case StatusInfeasible:
			infeasible++
		}
		if warm.Start == StartCertified && cold.Status != StatusInfeasible {
			t.Fatalf("trial %d: certified infeasible, cold start says %v", trial, cold.Status)
		}
	}
	t.Logf("warm solves by start: %v; %d infeasible", starts, infeasible)
	if starts[StartCertified] < 40 || starts[StartRepaired] < 40 || starts[StartWarm] < 40 {
		t.Fatalf("starts %v: want at least 40 certified, 40 repaired and 40 feasible as given", starts)
	}
}

// TestCertifiesInfeasible pins the dead-end certificate on one row,
// s = 10 − 2x − 3y + z with the slack s basic (row of B⁻¹ = [1]): which
// nonbasic columns can help by resting bound and side, fixed and basic
// columns left out, an infinite range certifying nothing, and the feasTol margin.
func TestCertifiesInfeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, 4, 0, "x")
	y := m.AddVar(0, 2, 0, "y")
	z := m.AddVar(0, 1, 0, "z")
	w := m.AddVar(0, 5, 0, "w") // basic in these states: never counted
	mustRow(t, m, LE, 10, Term{x, 2}, Term{y, 3}, Term{z, -1}, Term{w, 7})
	s := newSimplex(m, Options{}.withDefaults())
	slack := int(s.slackVar[0])
	rho := []float64{1}
	set := func(sx, sy, sz varState) {
		s.state = make([]varState, s.numCols())
		s.state[x], s.state[y], s.state[z] = sx, sy, sz
		s.state[w], s.state[slack] = inBasis, inBasis
	}

	// s below its bound: y falling from its upper bound gains 3 per unit over
	// a range of 2, z rising from its lower bound 1 over 1; x rising only
	// hurts. Reach 7.
	set(atLower, atUpper, atLower)
	for _, c := range []struct {
		violation float64
		want      bool
	}{{7.5, true}, {7 + 2e-7, true}, {7 + 5e-8, false}, {6.9, false}} {
		if got := s.certifiesInfeasible(rho, true, c.violation); got != c.want {
			t.Errorf("below, reach 7, violation %v: certified %v, want %v", c.violation, got, c.want)
		}
	}
	// s above its bound: the same columns help from the opposite bounds —
	// x rising (2·4), y rising (3·2), z falling (1·1): reach 15.
	set(atLower, atLower, atUpper)
	if !s.certifiesInfeasible(rho, false, 15.1) || s.certifiesInfeasible(rho, false, 14.9) {
		t.Error("above, reach 15: want 15.1 certified and 14.9 not")
	}
	// At the unhelpful bounds nothing can move s down.
	set(atUpper, atUpper, atLower)
	if !s.certifiesInfeasible(rho, false, 1e-6) {
		t.Error("above, reach 0: want any violation beyond feasTol certified")
	}
	// A fixed column has no range; an infinite one certifies nothing.
	set(atLower, atUpper, atLower)
	s.lower[y] = s.upper[y]
	if !s.certifiesInfeasible(rho, true, 1.1) || s.certifiesInfeasible(rho, true, 0.9) {
		t.Error("below with y fixed, reach 1: want 1.1 certified and 0.9 not")
	}
	s.upper[z] = math.Inf(1)
	if s.certifiesInfeasible(rho, true, 1e9) {
		t.Error("below with z unbounded above: certified despite an infinite reach")
	}
}
