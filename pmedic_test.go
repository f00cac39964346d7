package pmedic

import (
	"errors"
	"testing"
	"time"
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
	pg, err := PG(sc)
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
	if pg.Report.RecoveredFlows < pm.Report.RecoveredFlows {
		t.Fatalf("PG recovered %d < PM %d", pg.Report.RecoveredFlows, pm.Report.RecoveredFlows)
	}
	// PG pays the middle layer: higher per-flow overhead than PM.
	if pg.Report.PerFlowOverheadMs <= pm.Report.PerFlowOverheadMs {
		t.Fatalf("PG overhead %v <= PM %v", pg.Report.PerFlowOverheadMs, pm.Report.PerFlowOverheadMs)
	}
}

func TestFacadeOptimalSmallBudget(t *testing.T) {
	dep, w := fixtures(t)
	sc, err := NewScenario(dep, w, []int{4}) // tiny Florida-domain case
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimal(sc, OptimalOptions{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PM(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Objective+1e-9 < pm.Report.Objective && pm.Report.WithinBudget {
		t.Fatalf("Optimal objective %v below budget-feasible PM %v",
			res.Report.Objective, pm.Report.Objective)
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

func TestErrNoResultIsMatchable(t *testing.T) {
	if !errors.Is(ErrNoResult, ErrNoResult) {
		t.Fatal("sentinel broken")
	}
}
