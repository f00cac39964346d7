package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOrFatal(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := m.SolveWith(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func wantStatus(t *testing.T, sol *Solution, want Status) {
	t.Helper()
	if sol.Status != want {
		t.Fatalf("status = %v, want %v", sol.Status, want)
	}
}

func wantObj(t *testing.T, sol *Solution, want float64) {
	t.Helper()
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", sol.Objective, want)
	}
}

func TestSolveTextbookMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 3, "x")
	y := m.AddVar(0, math.Inf(1), 5, "y")
	mustRow(t, m, LE, 4, Term{x, 1})
	mustRow(t, m, LE, 12, Term{y, 2})
	mustRow(t, m, LE, 18, Term{x, 3}, Term{y, 2})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 36)
	if math.Abs(sol.X[x]-2) > 1e-6 || math.Abs(sol.X[y]-6) > 1e-6 {
		t.Fatalf("x=%v y=%v, want 2, 6", sol.X[x], sol.X[y])
	}
}

func TestSolveMinWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2 -> y as large as cheap... both
	// positive costs: put everything on the cheaper x: x=10? x cost 2 < y
	// cost 3, so x=10, y=0, but x>=2 anyway. obj = 20.
	m := NewModel(Minimize)
	x := m.AddVar(2, math.Inf(1), 2, "x")
	y := m.AddVar(0, math.Inf(1), 3, "y")
	mustRow(t, m, GE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 20)
}

func TestSolveEquality(t *testing.T) {
	// max x + 2y s.t. x + y = 5, 0 <= x,y <= 4 -> y=4, x=1, obj=9.
	m := NewModel(Maximize)
	x := m.AddVar(0, 4, 1, "x")
	y := m.AddVar(0, 4, 2, "y")
	mustRow(t, m, EQ, 5, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 9)
	if math.Abs(sol.X[y]-4) > 1e-6 {
		t.Fatalf("y = %v, want 4", sol.X[y])
	}
}

func TestSolveUpperBoundsOnly(t *testing.T) {
	// max x + y with 0<=x<=3, 0<=y<=7 and no rows -> 10 via bound flips.
	m := NewModel(Maximize)
	m.AddVar(0, 3, 1, "x")
	m.AddVar(0, 7, 1, "y")
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 10)
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	mustRow(t, m, LE, 3, Term{x, 1})
	mustRow(t, m, GE, 5, Term{x, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusInfeasible)
}

func TestSolveInfeasibleByBounds(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, 5, 1, "x")
	if err := m.SetBounds(x, 3, 2); err == nil {
		t.Fatal("SetBounds(3, 2) should fail")
	}
	// Fixing disjoint bounds through two variables instead.
	y := m.AddVar(4, 9, 1, "y")
	mustRow(t, m, EQ, 1, Term{x, 1}, Term{y, -1}) // x = y + 1 >= 5 but also x <= 5: x=5, y=4 works
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 9)
}

func TestSolveUnbounded(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	y := m.AddVar(0, math.Inf(1), 0, "y")
	mustRow(t, m, GE, 1, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusUnbounded)
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; the solver must still terminate at 1.
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	y := m.AddVar(0, math.Inf(1), 1, "y")
	mustRow(t, m, LE, 1, Term{x, 1})
	mustRow(t, m, LE, 0, Term{y, 1}, Term{x, -1})
	mustRow(t, m, LE, 1, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 1)
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -4  (x >= 4).
	m := NewModel(Minimize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	mustRow(t, m, LE, -4, Term{x, -1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 4)
}

func TestSolveDuplicateTermsMerge(t *testing.T) {
	// x + x <= 6 must behave as 2x <= 6.
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 1, "x")
	mustRow(t, m, LE, 6, Term{x, 1}, Term{x, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 3)
}

func TestSolveFixedVariable(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar(2, 2, 5, "x")
	y := m.AddVar(0, 3, 1, "y")
	mustRow(t, m, LE, 4, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 12)
	if sol.X[x] != 2 {
		t.Fatalf("fixed x = %v, want 2", sol.X[x])
	}
	if math.Abs(sol.X[y]-2) > 1e-6 {
		t.Fatalf("y = %v, want 2", sol.X[y])
	}
}

func TestSolveLowerBoundedStart(t *testing.T) {
	// Nonzero lower bounds exercise the initial residual computation.
	m := NewModel(Minimize)
	x := m.AddVar(5, 10, 1, "x")
	y := m.AddVar(3, 10, 1, "y")
	mustRow(t, m, GE, 12, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 12)
}

func TestSetBoundsResolve(t *testing.T) {
	// Solve, tighten a bound, solve again (the branch & bound pattern).
	m := NewModel(Maximize)
	x := m.AddVar(0, 1, 1, "x")
	y := m.AddVar(0, 1, 1, "y")
	mustRow(t, m, LE, 1.5, Term{x, 1}, Term{y, 1})
	sol := solveOrFatal(t, m)
	wantObj(t, sol, 1.5)
	if err := m.SetBounds(x, 1, 1); err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	sol = solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	wantObj(t, sol, 1.5)
	if math.Abs(sol.X[x]-1) > 1e-9 {
		t.Fatalf("x = %v, want 1", sol.X[x])
	}
	if err := m.SetBounds(y, 1, 1); err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	sol = solveOrFatal(t, m)
	wantStatus(t, sol, StatusInfeasible)
}

// TestRandomFeasibleLPs generates random bounded LPs that are feasible by
// construction (the RHS of every row is set to make a random interior point
// feasible) and checks that the solver (a) claims optimality, (b) returns a
// point satisfying every constraint, and (c) weakly beats the known feasible
// point.
func TestRandomFeasibleLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(6)
		nr := rng.Intn(8)
		m := NewModel(Maximize)
		point := make([]float64, nv)
		for v := 0; v < nv; v++ {
			ub := float64(1 + rng.Intn(9))
			obj := float64(rng.Intn(21) - 10)
			m.AddVar(0, ub, obj, "")
			point[v] = ub * rng.Float64()
		}
		type savedRow struct {
			coeffs []float64
			op     Op
			rhs    float64
		}
		var saved []savedRow
		for r := 0; r < nr; r++ {
			coeffs := make([]float64, nv)
			val := 0.0
			terms := make([]Term, 0, nv)
			for v := 0; v < nv; v++ {
				c := float64(rng.Intn(11) - 5)
				coeffs[v] = c
				val += c * point[v]
				if c != 0 {
					terms = append(terms, Term{v, c})
				}
			}
			var op Op
			var rhs float64
			switch rng.Intn(3) {
			case 0:
				op, rhs = LE, val+rng.Float64()*3
			case 1:
				op, rhs = GE, val-rng.Float64()*3
			default:
				op, rhs = EQ, val
			}
			if err := m.AddRow(op, rhs, terms...); err != nil {
				t.Fatalf("trial %d: AddRow: %v", trial, err)
			}
			saved = append(saved, savedRow{coeffs, op, rhs})
		}
		sol, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal (feasible by construction)", trial, sol.Status)
		}
		// Feasibility of the returned point.
		const tol = 1e-6
		for v := 0; v < nv; v++ {
			lo, hi, _ := m.Bounds(v)
			if sol.X[v] < lo-tol || sol.X[v] > hi+tol {
				t.Fatalf("trial %d: x[%d]=%v out of [%v,%v]", trial, v, sol.X[v], lo, hi)
			}
		}
		for ri, r := range saved {
			val := 0.0
			for v := 0; v < nv; v++ {
				val += r.coeffs[v] * sol.X[v]
			}
			switch r.op {
			case LE:
				if val > r.rhs+tol {
					t.Fatalf("trial %d row %d: %v > %v", trial, ri, val, r.rhs)
				}
			case GE:
				if val < r.rhs-tol {
					t.Fatalf("trial %d row %d: %v < %v", trial, ri, val, r.rhs)
				}
			case EQ:
				if math.Abs(val-r.rhs) > tol {
					t.Fatalf("trial %d row %d: %v != %v", trial, ri, val, r.rhs)
				}
			}
		}
		// Optimality against the known feasible point.
		objAt := func(x []float64) float64 {
			total := 0.0
			for v := 0; v < nv; v++ {
				_, _, _ = v, x, total
				total += m.obj[v] * x[v]
			}
			return total
		}
		if sol.Objective < objAt(point)-1e-6 {
			t.Fatalf("trial %d: objective %v below feasible point's %v", trial, sol.Objective, objAt(point))
		}
	}
}

// TestRandomTwoVarExact cross-checks random 2-variable LPs against brute
// force over candidate vertices (all pairwise intersections of constraint
// and bound lines).
func TestRandomTwoVarExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		m := NewModel(Maximize)
		ubx := float64(1 + rng.Intn(8))
		uby := float64(1 + rng.Intn(8))
		cx := float64(rng.Intn(11) - 5)
		cy := float64(rng.Intn(11) - 5)
		x := m.AddVar(0, ubx, cx, "x")
		y := m.AddVar(0, uby, cy, "y")
		type line struct{ a, b, rhs float64 } // a·x + b·y <= rhs
		lines := []line{
			{-1, 0, 0}, {1, 0, ubx}, {0, -1, 0}, {0, 1, uby},
		}
		nr := 1 + rng.Intn(4)
		for r := 0; r < nr; r++ {
			a := float64(rng.Intn(9) - 4)
			b := float64(rng.Intn(9) - 4)
			if a == 0 && b == 0 {
				continue
			}
			rhs := float64(rng.Intn(15) - 2)
			if err := m.AddRow(LE, rhs, Term{x, a}, Term{y, b}); err != nil {
				t.Fatalf("AddRow: %v", err)
			}
			lines = append(lines, line{a, b, rhs})
		}
		// Brute force: intersect every pair of lines, keep feasible points.
		best := math.Inf(-1)
		feasible := false
		const tol = 1e-9
		check := func(px, py float64) {
			for _, l := range lines {
				if l.a*px+l.b*py > l.rhs+1e-7 {
					return
				}
			}
			feasible = true
			if v := cx*px + cy*py; v > best {
				best = v
			}
		}
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				a1, b1, r1 := lines[i].a, lines[i].b, lines[i].rhs
				a2, b2, r2 := lines[j].a, lines[j].b, lines[j].rhs
				det := a1*b2 - a2*b1
				if math.Abs(det) < tol {
					continue
				}
				px := (r1*b2 - r2*b1) / det
				py := (a1*r2 - a2*r1) / det
				check(px, py)
			}
		}
		sol, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: status %v, brute force found no feasible vertex", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, sol.Status)
		}
		if math.Abs(sol.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, sol.Objective, best)
		}
	}
}

func mustRow(t *testing.T, m *Model, op Op, rhs float64, terms ...Term) {
	t.Helper()
	if err := m.AddRow(op, rhs, terms...); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
}

func TestDualsKnownLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4 (y1), 2y <= 12 (y2), 3x + 2y <= 18 (y3).
	// Known duals: y1 = 0, y2 = 3/2, y3 = 1.
	m := NewModel(Maximize)
	x := m.AddVar(0, math.Inf(1), 3, "x")
	y := m.AddVar(0, math.Inf(1), 5, "y")
	mustRow(t, m, LE, 4, Term{x, 1})
	mustRow(t, m, LE, 12, Term{y, 2})
	mustRow(t, m, LE, 18, Term{x, 3}, Term{y, 2})
	sol := solveOrFatal(t, m)
	wantStatus(t, sol, StatusOptimal)
	if sol.Duals == nil {
		t.Fatal("no duals at optimality")
	}
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if math.Abs(sol.Duals[i]-w) > 1e-6 {
			t.Fatalf("dual[%d] = %v, want %v (all: %v)", i, sol.Duals[i], w, sol.Duals)
		}
	}
}

func TestDualsStrongDuality(t *testing.T) {
	// For random feasible bounded LPs with zero lower bounds and no upper
	// bounds, strong duality: c·x* = y*·b when all constraints are <=.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		nv := 1 + rng.Intn(5)
		nr := 1 + rng.Intn(5)
		m := NewModel(Maximize)
		point := make([]float64, nv)
		for v := 0; v < nv; v++ {
			m.AddVar(0, math.Inf(1), float64(rng.Intn(10)), "")
			point[v] = rng.Float64() * 3
		}
		rhs := make([]float64, nr)
		for r := 0; r < nr; r++ {
			terms := make([]Term, 0, nv)
			val := 0.0
			for v := 0; v < nv; v++ {
				c := float64(1 + rng.Intn(5)) // positive rows keep it bounded
				terms = append(terms, Term{v, c})
				val += c * point[v]
			}
			rhs[r] = val + rng.Float64()*2
			mustRow(t, m, LE, rhs[r], terms...)
		}
		sol := solveOrFatal(t, m)
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: %v", trial, sol.Status)
		}
		dualObj := 0.0
		for r := 0; r < nr; r++ {
			if sol.Duals[r] < -1e-8 {
				t.Fatalf("trial %d: negative dual %v on a <= row of a max LP", trial, sol.Duals[r])
			}
			dualObj += sol.Duals[r] * rhs[r]
		}
		if math.Abs(dualObj-sol.Objective) > 1e-5*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: duality gap: primal %v dual %v", trial, sol.Objective, dualObj)
		}
	}
}
