package pmedic

import (
	"testing"
	"time"

	"pmedic/internal/eval"
	"pmedic/internal/scenario"
)

func fixtures(t *testing.T) (*Deployment, *Workload) {
	t.Helper()
	dep, err := ATT()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(dep, WorkloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, w
}

func TestFacadeEndToEnd(t *testing.T) {
	dep, w := fixtures(t)
	sc, err := NewScenario(dep, w, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PM(sc)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := RetroFlow(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Report.RecoveredFlows <= rf.Report.RecoveredFlows {
		t.Fatalf("headline case: PM recovered %d, RetroFlow %d — PM must win",
			pm.Report.RecoveredFlows, rf.Report.RecoveredFlows)
	}
	if pm.Report.TotalProg <= rf.Report.TotalProg {
		t.Fatalf("headline case: PM total %d, RetroFlow %d", pm.Report.TotalProg, rf.Report.TotalProg)
	}
}

func TestFacadeSweep(t *testing.T) {
	dep, w := fixtures(t)
	algs := Algorithms(time.Second)[:3] // heuristics only: fast
	cases, err := Sweep(dep, w, 1, algs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, c := range cases {
		for _, name := range []string{"PM", "RetroFlow", "PG"} {
			if c.Report(name) == nil {
				t.Fatalf("case %s missing %s", c.Label, name)
			}
		}
	}
}

func TestFacadeSimulate(t *testing.T) {
	dep, w := fixtures(t)
	n, err := Simulate(dep, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScenario(dep, w, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PM(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.ApplyRecovery(sc, res.Solution); err != nil {
		t.Fatal(err)
	}
	tr, err := n.Inject(sc.FlowIDs[0])
	if err != nil || !tr.Delivered {
		t.Fatalf("delivery after recovery: %v %+v", err, tr)
	}
}

func TestFacadeScenarioValidation(t *testing.T) {
	dep, w := fixtures(t)
	if _, err := NewScenario(dep, w, nil); err == nil {
		t.Fatal("empty failure set must be rejected")
	}
	if _, err := NewScenario(dep, w, []int{0, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("all-failed must be rejected")
	}
}

func TestFacadeSuccessiveAndChurn(t *testing.T) {
	dep, w := fixtures(t)
	steps, err := scenario.BuildSuccessive(dep, w, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	prev, err := PM(steps[0].Instance)
	if err != nil {
		t.Fatal(err)
	}
	next, err := PM(steps[1].Instance)
	if err != nil {
		t.Fatal(err)
	}
	churn := eval.Churn(steps[0].Instance, prev.Solution, steps[1].Instance, next.Solution)
	if churn.CommonSwitches == 0 || churn.CommonPairs == 0 {
		t.Fatalf("churn = %+v", churn)
	}
}

func TestFacadeCascadeOrderingByGranularity(t *testing.T) {
	dep, w := fixtures(t)
	algs := Algorithms(time.Second)
	pmRes, err := eval.Cascade(dep, w, []int{3}, algs[0], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	rfRes, err := eval.Cascade(dep, w, []int{3}, algs[1], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Per-flow recovery spreads load; switch-level recovery concentrates it.
	if pmRes.Collapsed && !rfRes.Collapsed {
		t.Fatal("PM cascaded further than RetroFlow at the same trigger")
	}
	if pmRes.SurvivedRounds() == 0 || rfRes.SurvivedRounds() == 0 {
		t.Fatalf("survived rounds: PM %d, RetroFlow %d", pmRes.SurvivedRounds(), rfRes.SurvivedRounds())
	}
}
