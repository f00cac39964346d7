package lp

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestClonesShareTheCompiledForm solves clones of a model side by side, cold
// and warm, under bounds tightened around the model's optimum, the way branch
// & bound solves a frontier. The clones must share the model's compiled form
// and leave it as it was: the model then solves to the same point, bit for
// bit, as a freshly built copy of it. (Under -race this also checks that a
// clone's cold start appends its artificials to a copy of the shared form.)
func TestClonesShareTheCompiledForm(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		build := func() *Model { return randomModel(rand.New(rand.NewSource(seed)), 14, 10) }
		m := build()
		root, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := copyForm(m.form)

		var wg sync.WaitGroup
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < 6; c++ {
			clone := m.Clone()
			if clone.form != m.form {
				t.Fatalf("seed %d: the clone compiled a form of its own", seed)
			}
			if root.Status == StatusOptimal {
				v := rng.Intn(m.NumVars())
				if err := clone.SetBounds(v, 0, math.Floor(root.X[v]/2)); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Factorization: Factorization(c % 2)}
			if c%3 == 0 {
				opts.Warm = root.Basis
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := clone.SolveWith(opts); err != nil {
					t.Errorf("seed %d, clone %d: %v", seed, c, err)
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(copyForm(m.form), before) {
			t.Fatalf("seed %d: solving the clones changed the shared form", seed)
		}

		got, err := m.SolveWith(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := build().SolveWith(Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameSolution(t, got, want)
	}
}

// TestAddAfterSolveIsSeen adds a variable and rows to a model between solves.
// Each solve must see the model as it is then, as a model built that way from
// the start does: AddVar and AddRow drop the compiled form.
func TestAddAfterSolveIsSeen(t *testing.T) {
	type step struct {
		add  func(m *Model)
		want []float64 // optimal X after the step
	}
	steps := []step{
		// max 2x + y + 5z s.t. x + y ≤ 8, over x, y ∈ [0, 10] ...
		{func(m *Model) {
			m.AddVar(0, 10, 2, "x")
			m.AddVar(0, 10, 1, "y")
			mustRow(t, m, LE, 8, Term{0, 1}, Term{1, 1})
		}, []float64{8, 0}},
		// ... and x ≤ 3 ...
		{func(m *Model) { mustRow(t, m, LE, 3, Term{0, 1}) }, []float64{3, 5}},
		// ... and z ∈ [0, 4] ...
		{func(m *Model) { m.AddVar(0, 4, 5, "z") }, []float64{3, 5, 4}},
		// ... and y + z ≥ 1, y + z ≤ 6.
		{func(m *Model) {
			mustRow(t, m, GE, 1, Term{1, 1}, Term{2, 1})
			mustRow(t, m, LE, 6, Term{1, 1}, Term{2, 1})
		}, []float64{3, 2, 4}},
	}
	m := NewModel(Maximize)
	for i, st := range steps {
		st.add(m)
		got := solveOrFatal(t, m)
		fresh := NewModel(Maximize)
		for _, prev := range steps[:i+1] {
			prev.add(fresh)
		}
		requireSameSolution(t, got, solveOrFatal(t, fresh))
		wantStatus(t, got, StatusOptimal)
		for v, x := range st.want {
			if math.Abs(got.X[v]-x) > 1e-9 {
				t.Fatalf("step %d: X = %v, want %v", i, got.X, st.want)
			}
		}
	}
}

// copyForm deep-copies a compiled form.
func copyForm(f *form) form {
	return form{
		colPtr:   append([]int32(nil), f.colPtr...),
		rowIdx:   append([]int32(nil), f.rowIdx...),
		colVal:   append([]float64(nil), f.colVal...),
		costP2:   append([]float64(nil), f.costP2...),
		b:        append([]float64(nil), f.b...),
		slackVar: append([]int32(nil), f.slackVar...),
	}
}

// requireSameSolution fails unless two solutions have the same status,
// objective and point, bit for bit.
func requireSameSolution(t *testing.T, got, want *Solution) {
	t.Helper()
	same := got.Status == want.Status && math.Float64bits(got.Objective) == math.Float64bits(want.Objective) &&
		len(got.X) == len(want.X)
	for v := 0; same && v < len(got.X); v++ {
		same = math.Float64bits(got.X[v]) == math.Float64bits(want.X[v])
	}
	if !same {
		t.Fatalf("%v at %v (objective %v), want %v at %v (objective %v)",
			got.Status, got.X, got.Objective, want.Status, want.X, want.Objective)
	}
}
