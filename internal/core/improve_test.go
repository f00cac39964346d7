package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"pmedic/internal/core"
)

func cloneSolution(s *core.Solution) *core.Solution {
	c := *s
	c.SwitchController = append([]int(nil), s.SwitchController...)
	c.Active = append([]bool(nil), s.Active...)
	if s.PairController != nil {
		c.PairController = append([]int(nil), s.PairController...)
	}
	return &c
}

// degrade deactivates every third active pair and unmaps any switch left
// without active pairs — a feasible but clearly suboptimal starting point
// with plenty of slack for the improver to claw back.
func degrade(p *core.Problem, s *core.Solution) *core.Solution {
	d := cloneSolution(s)
	nth := 0
	for k := range d.Active {
		if !d.Active[k] {
			continue
		}
		if nth%3 == 0 {
			d.Active[k] = false
		}
		nth++
	}
	activeAt := make([]bool, p.NumSwitches)
	for k, on := range d.Active {
		if on {
			activeAt[p.Pairs[k].Switch] = true
		}
	}
	for i := range d.SwitchController {
		if !activeAt[i] {
			d.SwitchController[i] = -1
		}
	}
	return d
}

func objective(t *testing.T, p *core.Problem, s *core.Solution) float64 {
	t.Helper()
	rep, err := core.Evaluate(p, s, core.EvaluateOptions{})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return rep.Objective
}

// TestImproveNoOpAfterPM pins the quiescence property the K=1 hierarchical
// solve depends on: starting from a finished PM solution, Improve changes
// nothing.
func TestImproveNoOpAfterPM(t *testing.T) {
	for it := 0; it < 60; it++ {
		rng := rand.New(rand.NewSource(int64(8100 + it)))
		p := randAggProblem(rng)
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		s, err := core.PMFlat(p)
		if err != nil {
			t.Fatal(err)
		}
		got := cloneSolution(s)
		if _, err := core.Improve(p, got, 64); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zeroRuntime(s), zeroRuntime(got)) {
			t.Fatalf("it %d: Improve changed a quiescent PM solution", it)
		}
	}
}

// TestImproveMonotonic starts from a degraded PM solution and checks that
// the objective never decreases as the round budget grows, and that every
// budget recovers at least the degraded baseline.
func TestImproveMonotonic(t *testing.T) {
	for it := 0; it < 40; it++ {
		rng := rand.New(rand.NewSource(int64(8200 + it)))
		p := randAggProblem(rng)
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		s, err := core.PMFlat(p)
		if err != nil {
			t.Fatal(err)
		}
		start := degrade(p, s)
		prev := objective(t, p, start)
		for rounds := 1; rounds <= 5; rounds++ {
			got := cloneSolution(start)
			if _, err := core.Improve(p, got, rounds); err != nil {
				t.Fatal(err)
			}
			obj := objective(t, p, got)
			if obj < prev {
				t.Fatalf("it %d: objective dropped %.6f -> %.6f at %d rounds", it, prev, obj, rounds)
			}
			prev = obj
		}
	}
}

// TestImproveDeterministic runs the improver twice from identical inputs and
// checks byte-identical results, and that a zero round budget leaves an
// already unmapped-when-idle solution untouched.
func TestImproveDeterministic(t *testing.T) {
	for it := 0; it < 40; it++ {
		rng := rand.New(rand.NewSource(int64(8300 + it)))
		p := randAggProblem(rng)
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		s, err := core.PMFlat(p)
		if err != nil {
			t.Fatal(err)
		}
		start := degrade(p, s)

		a := cloneSolution(start)
		b := cloneSolution(start)
		ra, err := core.Improve(p, a, 3)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := core.Improve(p, b, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb || !reflect.DeepEqual(a, b) {
			t.Fatalf("it %d: repeated Improve diverged (%d vs %d rounds)", it, ra, rb)
		}

		// A zero budget only unmaps idle switches, and degrade left none.
		c := cloneSolution(start)
		if rc, err := core.Improve(p, c, 0); err != nil || rc != 0 {
			t.Fatalf("it %d: zero-round Improve ran %d rounds, err %v", it, rc, err)
		}
		if !reflect.DeepEqual(c, start) {
			t.Fatalf("it %d: zero-round Improve changed the solution", it)
		}
	}
}

// TestImproveValidation covers the error paths.
func TestImproveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8400))
	p := randAggProblem(rng)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	s, err := core.PMFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := cloneSolution(s)
	bad.SwitchLevel = true
	if _, err := core.Improve(p, bad, 64); err == nil {
		t.Fatal("want error for switch-level solution")
	}
	short := cloneSolution(s)
	short.Active = short.Active[:len(short.Active)-1]
	if _, err := core.Improve(p, short, 64); err == nil {
		t.Fatal("want error for shape mismatch")
	}
}
