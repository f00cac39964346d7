package core

import (
	"errors"
	"math"
	"testing"
)

func TestNewSolutionShape(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	if len(s.SwitchController) != 2 || len(s.Active) != 4 {
		t.Fatalf("bad shape: %d switches, %d pairs", len(s.SwitchController), len(s.Active))
	}
	for _, j := range s.SwitchController {
		if j != -1 {
			t.Fatal("fresh solution must be unmapped")
		}
	}
	if err := s.Verify(p); err != nil {
		t.Fatalf("empty solution should verify: %v", err)
	}
}

func TestVerifyCatchesCapacityViolation(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	s.SwitchController[0] = 0
	s.SwitchController[1] = 0
	for k := range s.Active {
		s.Active[k] = true // 4 active pairs on controller 0 with rest 2
	}
	if err := s.Verify(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestVerifyCatchesActiveAtUnmapped(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	s.Active[0] = true // switch 0 unmapped
	if _, err := s.ControllerLoads(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestVerifyCatchesBadDimensions(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	s.Active = s.Active[:1]
	if err := s.Verify(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestControllerLoadsSwitchLevel(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("RF", p)
	s.SwitchLevel = true
	s.SwitchController[0] = 0
	for k, hi := p.SwitchRun(0); k < hi; k++ {
		s.Active[k] = true
	}
	loads, err := s.ControllerLoads(p)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != p.Gamma[0] {
		t.Fatalf("switch-level load = %d, want γ=%d", loads[0], p.Gamma[0])
	}
}

func TestFlowProgrammability(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	s.SwitchController[0] = 0
	s.SwitchController[1] = 1
	s.Active[1] = true // flow 1 at switch 0, p̄=3
	s.Active[2] = true // flow 1 at switch 1, p̄=2
	rep, err := Evaluate(p, s, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pro := rep.FlowProg; pro[0] != 0 || pro[1] != 5 || pro[2] != 0 {
		t.Fatalf("pro = %v, want [0 5 0]", pro)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("X", p)
	s.SwitchController[0] = 0
	s.SwitchController[1] = 1
	// Activate one pair per flow: flows 0 (p̄2), 1 (p̄3 at sw0), 2 (p̄4).
	s.Active[0] = true
	s.Active[1] = true
	s.Active[3] = true
	rep, err := Evaluate(p, s, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinProg != 2 || rep.TotalProg != 9 {
		t.Fatalf("min=%d total=%d, want 2, 9", rep.MinProg, rep.TotalProg)
	}
	if rep.RecoveredFlows != 3 || rep.RecoveredSwitches != 2 {
		t.Fatalf("recovered flows=%d switches=%d", rep.RecoveredFlows, rep.RecoveredSwitches)
	}
	// Overhead: two pairs at switch 0 via controller 0 (delay 1 each) + one
	// pair at switch 1 via controller 1 (delay 1).
	if math.Abs(rep.OverheadMs-3) > 1e-9 {
		t.Fatalf("overhead = %v, want 3", rep.OverheadMs)
	}
	if math.Abs(rep.PerFlowOverheadMs-1) > 1e-9 {
		t.Fatalf("per-flow overhead = %v, want 1", rep.PerFlowOverheadMs)
	}
	if !rep.WithinBudget {
		t.Fatal("3 ms is within the budget of 20 ms")
	}
	wantObj := 2 + Lambda*9
	if math.Abs(rep.Objective-wantObj) > 1e-12 {
		t.Fatalf("objective = %v, want %v", rep.Objective, wantObj)
	}
}

func TestEvaluateMiddleLayerDelay(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("PG", p)
	s.MiddleLayer = true
	s.PairController = []int{0, -1, -1, -1}
	s.Active[0] = true
	mid := [][]float64{{10, 20}, {30, 40}}
	rep, err := Evaluate(p, s, EvaluateOptions{MiddleDelay: mid})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverheadMs != 10 {
		t.Fatalf("overhead = %v, want middle-layer 10", rep.OverheadMs)
	}
	if rep.RecoveredSwitches != 1 {
		t.Fatalf("recovered switches = %d, want 1 (flow-level counting)", rep.RecoveredSwitches)
	}
}

func TestEvaluatePairControllerCapacity(t *testing.T) {
	p := tinyProblem(t)
	s := NewSolution("PG", p)
	s.PairController = []int{0, 0, 0, -1}
	s.Active[0], s.Active[1], s.Active[2] = true, true, true
	// Controller 0 rest is 2; three pairs must fail verification.
	if err := s.Verify(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}
