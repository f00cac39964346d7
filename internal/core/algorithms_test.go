package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomProblem generates a valid random instance for property tests.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(4)
	l := 1 + rng.Intn(30)
	p := &Problem{
		NumSwitches:    n,
		NumControllers: m,
		NumFlows:       l,
		Rest:           make([]int, m),
		Gamma:          make([]int, n),
		Delay:          make([][]float64, n),
	}
	for j := range p.Rest {
		p.Rest[j] = rng.Intn(40)
	}
	for i := range p.Delay {
		row := make([]float64, m)
		for j := range row {
			row[j] = 0.1 + rng.Float64()*10
		}
		p.Delay[i] = row
	}
	// Every flow gets at least one pair so the instance is "recoverable" in
	// the scenario-builder sense.
	for fl := 0; fl < l; fl++ {
		p.Pairs = append(p.Pairs, Pair{
			Switch: rng.Intn(n),
			Flow:   fl,
			PBar:   2 + rng.Intn(7),
		})
	}
	extra := rng.Intn(3 * l)
	for e := 0; e < extra; e++ {
		p.Pairs = append(p.Pairs, Pair{
			Switch: rng.Intn(n),
			Flow:   rng.Intn(l),
			PBar:   2 + rng.Intn(7),
		})
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	for i := range p.Gamma {
		p.Gamma[i] = p.EligiblePairCount(i) + rng.Intn(10)
	}
	p.BudgetMs = p.IdealDelayBudget()
	return p
}

func TestPMTiny(t *testing.T) {
	p := tinyProblem(t)
	s, err := PM(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rep, err := Evaluate(p, s, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 2+2 covers all four pairs: every flow recovered, total 11.
	if rep.RecoveredFlows != 3 {
		t.Fatalf("recovered = %d, want 3", rep.RecoveredFlows)
	}
	if rep.TotalProg != 11 {
		t.Fatalf("total = %d, want 11 (all pairs active)", rep.TotalProg)
	}
	if rep.MinProg != 2 {
		t.Fatalf("min = %d, want 2", rep.MinProg)
	}
}

func TestPMRequiresFinalizedProblem(t *testing.T) {
	p := &Problem{NumSwitches: 1, NumControllers: 1, NumFlows: 1}
	if _, err := PM(p); err == nil {
		t.Fatal("PM must reject unfinalized problems")
	}
	if _, err := RetroFlow(p); err == nil {
		t.Fatal("RetroFlow must reject unfinalized problems")
	}
	if _, err := PG(p); err == nil {
		t.Fatal("PG must reject unfinalized problems")
	}
}

func TestPMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng)
	a, err := PM(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PM(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.SwitchController, b.SwitchController) || !reflect.DeepEqual(a.Active, b.Active) {
		t.Fatal("PM is not deterministic")
	}
}

func TestPMAbundantCapacityActivatesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng)
		for j := range p.Rest {
			p.Rest[j] = len(p.Pairs) + 1
		}
		p.BudgetMs = 1e18 // delay never binds
		s, err := PM(p)
		if err != nil {
			t.Fatal(err)
		}
		for k, on := range s.Active {
			if !on {
				t.Fatalf("trial %d: pair %d inactive despite abundant capacity", trial, k)
			}
		}
	}
}

// TestAlgorithmsProperties checks the invariants every solver must uphold on
// random instances: feasibility, consistent accounting, and the structural
// contract of each solution family.
func TestAlgorithmsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng)
		pm, err := PM(p)
		if err != nil {
			t.Fatalf("trial %d: PM: %v", trial, err)
		}
		rf, err := RetroFlow(p)
		if err != nil {
			t.Fatalf("trial %d: RetroFlow: %v", trial, err)
		}
		pg, err := PG(p)
		if err != nil {
			t.Fatalf("trial %d: PG: %v", trial, err)
		}
		for _, s := range []*Solution{pm, rf, pg} {
			if err := s.Verify(p); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, s.Algorithm, err)
			}
		}
		// RetroFlow contract: every eligible pair at a mapped switch is
		// active; none at unmapped switches.
		for k, pr := range p.Pairs {
			mapped := rf.SwitchController[pr.Switch] >= 0
			if mapped != rf.Active[k] {
				t.Fatalf("trial %d: RetroFlow pair %d active=%v at mapped=%v switch",
					trial, k, rf.Active[k], mapped)
			}
		}
		// PG contract: flow-level mapping, every active pair charged.
		if pg.PairController == nil {
			t.Fatalf("trial %d: PG must use PairController", trial)
		}
		for k, on := range pg.Active {
			if on && pg.PairController[k] < 0 {
				t.Fatalf("trial %d: PG active pair %d uncharged", trial, k)
			}
			if !on && pg.PairController[k] >= 0 {
				t.Fatalf("trial %d: PG inactive pair %d charged", trial, k)
			}
		}
		// PG recovers at least as many flows as any switch-level solution:
		// its feasible set strictly contains theirs.
		pgRep, err := Evaluate(p, pg, EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pmRep, err := Evaluate(p, pm, EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rfRep, err := Evaluate(p, rf, EvaluateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pgRep.RecoveredFlows < rfRep.RecoveredFlows {
			t.Fatalf("trial %d: PG recovered %d < RetroFlow %d",
				trial, pgRep.RecoveredFlows, rfRep.RecoveredFlows)
		}
		if pmRep.TotalProg < 0 || pmRep.MinProg < 0 {
			t.Fatalf("trial %d: negative metrics", trial)
		}
	}
}

func TestRetroFlowRespectsGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng)
		s, err := RetroFlow(p)
		if err != nil {
			t.Fatal(err)
		}
		loads, err := s.ControllerLoads(p)
		if err != nil {
			t.Fatal(err)
		}
		for j, load := range loads {
			if load > p.Rest[j] {
				t.Fatalf("trial %d: controller %d overloaded: %d > %d", trial, j, load, p.Rest[j])
			}
		}
	}
}

func TestRetroFlowCannotMapOversizedSwitch(t *testing.T) {
	// One switch whose γ exceeds every controller's residual: RetroFlow must
	// leave it in legacy mode, PM must still recover its flows per-pair.
	p := &Problem{
		NumSwitches:    1,
		NumControllers: 2,
		NumFlows:       3,
		Rest:           []int{5, 4},
		Gamma:          []int{100},
		Delay:          [][]float64{{1, 2}},
		Pairs: []Pair{
			{Switch: 0, Flow: 0, PBar: 2},
			{Switch: 0, Flow: 1, PBar: 3},
			{Switch: 0, Flow: 2, PBar: 2},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = p.IdealDelayBudget()

	rf, err := RetroFlow(p)
	if err != nil {
		t.Fatal(err)
	}
	if rf.SwitchController[0] != -1 {
		t.Fatal("RetroFlow mapped a switch exceeding every residual capacity")
	}
	rfRep, err := Evaluate(p, rf, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rfRep.RecoveredFlows != 0 {
		t.Fatalf("RetroFlow recovered %d flows, want 0", rfRep.RecoveredFlows)
	}

	pm, err := PM(p)
	if err != nil {
		t.Fatal(err)
	}
	pmRep, err := Evaluate(p, pm, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pmRep.RecoveredFlows != 3 {
		t.Fatalf("PM recovered %d flows, want 3 (the paper's headline mechanism)", pmRep.RecoveredFlows)
	}
}

func TestPGBalancesBeforeMaximizing(t *testing.T) {
	// Capacity 2 and flows {0, 1} each with one pair, flow 0's p̄ smaller,
	// plus a second high-p̄ pair for flow 1. Balance-first must cover both
	// flows before upgrading flow 1.
	p := &Problem{
		NumSwitches:    2,
		NumControllers: 1,
		NumFlows:       2,
		Rest:           []int{2},
		Gamma:          []int{5, 5},
		Delay:          [][]float64{{1}, {1}},
		Pairs: []Pair{
			{Switch: 0, Flow: 0, PBar: 2},
			{Switch: 0, Flow: 1, PBar: 3},
			{Switch: 1, Flow: 1, PBar: 8},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	s, err := PG(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(p, s, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pro := rep.FlowProg; pro[0] == 0 {
		t.Fatalf("PG starved flow 0: pro=%v", pro)
	}
}

func TestPMRuntimeRecorded(t *testing.T) {
	p := tinyProblem(t)
	s, err := PM(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime <= 0 {
		t.Fatal("Runtime not recorded")
	}
}
