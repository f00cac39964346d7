package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// composedReport is Evaluate as it was before it read a solution once: Verify,
// then ControllerLoads, then FlowProgrammability, then a loop of its own over
// Active for the overhead.
func composedReport(p *core.Problem, s *core.Solution, opts core.EvaluateOptions) (*core.Report, error) {
	if err := s.Verify(p); err != nil {
		return nil, err
	}
	loads, err := s.ControllerLoads(p)
	if err != nil {
		return nil, err
	}
	pro := s.FlowProgrammability(p)
	r := &core.Report{Algorithm: s.Algorithm, FlowProg: pro, ControllerLoad: loads, Runtime: s.Runtime}
	r.MinProg = int(^uint(0) >> 1)
	for _, v := range pro {
		r.TotalProg += v
		if v >= 1 {
			r.RecoveredFlows++
		}
		r.MinProg = min(r.MinProg, v)
	}
	r.Objective = float64(r.MinProg) + core.Lambda*float64(r.TotalProg)

	delayOf := func(i, j int) float64 {
		if s.MiddleLayer && opts.MiddleDelay != nil {
			return opts.MiddleDelay[i][j]
		}
		return p.Delay[i][j]
	}
	if s.SwitchLevel {
		for i, j := range s.SwitchController {
			if j >= 0 {
				r.RecoveredSwitches++
				r.OverheadMs += float64(p.Gamma[i]) * delayOf(i, j)
			}
		}
	} else {
		touched := make([]bool, p.NumSwitches)
		for k, on := range s.Active {
			if !on {
				continue
			}
			i := p.Pairs[k].Switch
			touched[i] = true
			j := s.SwitchController[i]
			if s.PairController != nil {
				j = s.PairController[k]
			}
			r.OverheadMs += delayOf(i, j)
		}
		for i, j := range s.SwitchController {
			if s.PairController == nil && j >= 0 || s.PairController != nil && touched[i] {
				r.RecoveredSwitches++
			}
		}
	}
	if r.RecoveredFlows > 0 {
		r.PerFlowOverheadMs = r.OverheadMs / float64(r.RecoveredFlows)
	}
	r.WithinBudget = r.OverheadMs <= p.BudgetMs+1e-9
	return r, nil
}

// TestEvaluateMatchesComposition: the one-pass Evaluate returns, field for
// field and float for float, the Report assembled from the exported pieces
// and the old overhead loop — for switch-mapping (PM), switch-level
// (RetroFlow) and flow-mapping (PG) solutions, the last priced on the
// problem's delays and on a middle-layer matrix — and the error of the first
// check a bad solution fails.
func TestEvaluateMatchesComposition(t *testing.T) {
	type instance struct {
		tag    string
		p      *core.Problem
		middle [][]float64
	}
	var insts []instance
	for it := 0; it < 40; it++ {
		rng := rand.New(rand.NewSource(int64(4000 + it)))
		p := randAggProblem(rng)
		if len(p.Pairs) == 0 {
			continue
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		p.BudgetMs = p.IdealDelayBudget()
		middle := make([][]float64, p.NumSwitches)
		for i := range middle {
			middle[i] = make([]float64, p.NumControllers)
			for j := range middle[i] {
				middle[i][j] = 0.48 + rng.Float64()*20
			}
		}
		insts = append(insts, instance{"random", p, middle})
	}
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, failed := range [][]int{{4}, {3, 4}, {0, 1}, {2, 3, 4}} {
		inst, err := scenario.Build(dep, flows, failed)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{"ATT " + inst.Label(), inst.Problem, inst.MiddleDelay})
	}

	for _, in := range insts {
		for _, alg := range []struct {
			name string
			run  func(*core.Problem) (*core.Solution, error)
			opts core.EvaluateOptions
		}{
			{"PM", core.PM, core.EvaluateOptions{}},
			{"RetroFlow", core.RetroFlow, core.EvaluateOptions{}},
			{"PG", core.PG, core.EvaluateOptions{}},
			{"PG/middle", core.PG, core.EvaluateOptions{MiddleDelay: in.middle}},
		} {
			sol, err := alg.run(in.p)
			if err != nil {
				t.Fatalf("%s %s: %v", in.tag, alg.name, err)
			}
			got, err := core.Evaluate(in.p, sol, alg.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", in.tag, alg.name, err)
			}
			want, err := composedReport(in.p, sol, alg.opts)
			if err != nil {
				t.Fatalf("%s %s: composition: %v", in.tag, alg.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: Evaluate differs from its composition\n got %+v\nwant %+v", in.tag, alg.name, got, want)
			}
		}
	}

	// Two switches with two pairs each; controller 0 can take two pairs.
	tiny := &core.Problem{
		NumSwitches: 2, NumControllers: 2, NumFlows: 3,
		Rest: []int{2, 2}, Gamma: []int{10, 10},
		Delay: [][]float64{{1, 5}, {5, 1}},
		Pairs: []core.Pair{{Switch: 0, Flow: 0, PBar: 2}, {Switch: 0, Flow: 1, PBar: 3}, {Switch: 1, Flow: 1, PBar: 2}, {Switch: 1, Flow: 2, PBar: 4}},
	}
	if err := tiny.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		make func(s *core.Solution)
		want string
	}{
		{"capacity", func(s *core.Solution) {
			s.SwitchController = []int{0, 0}
			s.Active = []bool{true, true, true, true}
		}, "core: infeasible solution: controller 0 load 4 exceeds residual 2"},
		{"active at unmapped", func(s *core.Solution) { s.Active[0] = true },
			"core: infeasible solution: active pair 0 charged to controller -1"},
		{"active at unmapped, switch level", func(s *core.Solution) { s.SwitchLevel, s.Active[3] = true, true },
			"core: infeasible solution: active pair 3 at unmapped switch 1"},
		{"dimensions", func(s *core.Solution) { s.Active = s.Active[:1] },
			"core: infeasible solution: len(Active)=1, want 4"},
		{"pair controller capacity", func(s *core.Solution) {
			s.PairController = []int{0, 0, 0, -1}
			s.Active = []bool{true, true, true, false}
		}, "core: infeasible solution: controller 0 load 3 exceeds residual 2"},
	} {
		s := core.NewSolution("X", tiny)
		tc.make(s)
		_, err := core.Evaluate(tiny, s, core.EvaluateOptions{})
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: Evaluate error = %v, want %q", tc.name, err, tc.want)
		}
		if _, cerr := composedReport(tiny, s, core.EvaluateOptions{}); cerr == nil || cerr.Error() != tc.want {
			t.Fatalf("%s: composition error = %v, want %q", tc.name, cerr, tc.want)
		}
	}
}
