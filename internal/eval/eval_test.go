package eval

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func fixtures(t *testing.T) (*topo.Deployment, *flow.Set) {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, flows
}

func heuristics() []Algorithm {
	return []Algorithm{
		{Name: "PM", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.PM(inst.Problem)
		}},
		{Name: "RetroFlow", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.RetroFlow(inst.Problem)
		}},
		{Name: "PG", Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return core.PG(inst.Problem)
		}},
	}
}

func TestQuartiles(t *testing.T) {
	box := Quartiles([]int{1, 2, 3, 4, 5})
	if box.Min != 1 || box.Max != 5 || box.Median != 3 || box.Q1 != 2 || box.Q3 != 4 {
		t.Fatalf("box = %+v", box)
	}
	if box.N != 5 {
		t.Fatalf("N = %d", box.N)
	}
}

func TestQuartilesInterpolation(t *testing.T) {
	box := Quartiles([]int{0, 10})
	if box.Median != 5 || box.Q1 != 2.5 || box.Q3 != 7.5 {
		t.Fatalf("box = %+v", box)
	}
}

func TestQuartilesDegenerate(t *testing.T) {
	if box := Quartiles(nil); box.N != 0 || box.Max != 0 {
		t.Fatalf("empty box = %+v", box)
	}
	box := Quartiles([]int{7})
	if box.Min != 7 || box.Median != 7 || box.Max != 7 {
		t.Fatalf("singleton box = %+v", box)
	}
}

// runFresh compiles and evaluates one case on a fresh scenario context.
func runFresh(t *testing.T, dep *topo.Deployment, flows *flow.Set, failed []int, algs []Algorithm) (*CaseResult, error) {
	t.Helper()
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	return runCase(ctx, failed, algs)
}

// runCase compiles one failure case off ctx and evaluates algs on it.
func runCase(ctx *scenario.Context, failed []int, algs []Algorithm) (*CaseResult, error) {
	inst, err := ctx.Build(failed)
	if err != nil {
		return nil, err
	}
	return evalCase(inst, failed, algs)
}

func TestRunCaseProducesAllReports(t *testing.T) {
	dep, flows := fixtures(t)
	cr, err := runFresh(t, dep, flows, []int{3}, heuristics())
	if err != nil {
		t.Fatal(err)
	}
	if cr.Label != "(13)" {
		t.Fatalf("label = %q", cr.Label)
	}
	for _, name := range []string{"PM", "RetroFlow", "PG"} {
		if cr.Report(name) == nil {
			t.Fatalf("missing report for %s", name)
		}
	}
	if cr.Report("Nope") != nil {
		t.Fatal("unknown algorithm should have no report")
	}
}

func TestRunCaseNoResultTolerated(t *testing.T) {
	dep, flows := fixtures(t)
	algs := append(heuristics(), Algorithm{
		Name: "Flaky",
		Run: func(*scenario.Instance) (*core.Solution, error) {
			return nil, ErrNoResult
		},
	})
	cr, err := runFresh(t, dep, flows, []int{0}, algs)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Report("Flaky") != nil {
		t.Fatal("no-result algorithm must be absent from reports")
	}
}

func TestRunCasePropagatesHardErrors(t *testing.T) {
	dep, flows := fixtures(t)
	boom := errors.New("boom")
	algs := []Algorithm{{
		Name: "Broken",
		Run: func(*scenario.Instance) (*core.Solution, error) {
			return nil, boom
		},
	}}
	if _, err := runFresh(t, dep, flows, []int{0}, algs); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
}

func TestSweepCounts(t *testing.T) {
	dep, flows := fixtures(t)
	for k, want := range map[int]int{1: 6, 2: 15} {
		cases, err := SweepOpts(dep, flows, k, heuristics()[:1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cases) != want {
			t.Fatalf("k=%d: %d cases, want %d", k, len(cases), want)
		}
	}
}

func TestMetricAccessors(t *testing.T) {
	dep, flows := fixtures(t)
	cr, err := runFresh(t, dep, flows, []int{3, 4}, heuristics())
	if err != nil {
		t.Fatal(err)
	}
	box, ok := cr.ProgBox("PM")
	if !ok || box.N == 0 {
		t.Fatal("ProgBox(PM) missing")
	}
	if _, ok := cr.ProgBox("Nope"); ok {
		t.Fatal("ProgBox for unknown algorithm should fail")
	}
	pct, ok := cr.TotalProgPctOf("RetroFlow", "RetroFlow")
	if !ok || math.Abs(pct-100) > 1e-9 {
		t.Fatalf("self-normalized pct = %v", pct)
	}
	pmPct, ok := cr.TotalProgPctOf("PM", "RetroFlow")
	if !ok || pmPct < 100 {
		t.Fatalf("PM pct of RetroFlow = %v, want > 100 in the headline case", pmPct)
	}
	fp, ok := cr.RecoveredFlowPct("PM")
	if !ok || fp <= 0 || fp > 100 {
		t.Fatalf("recovered flow pct = %v", fp)
	}
	sp, ok := cr.RecoveredSwitchPct("PM")
	if !ok || sp <= 0 || sp > 100 {
		t.Fatalf("recovered switch pct = %v", sp)
	}
	loads, ok := cr.ControllerLoadPct("PM")
	if !ok || len(loads) != cr.Instance.Problem.NumControllers {
		t.Fatalf("loads = %v", loads)
	}
	for _, pct := range loads {
		if pct < 0 || pct > 100+1e-9 {
			t.Fatalf("load pct %v out of range", pct)
		}
	}
	ov, ok := cr.PerFlowOverheadMs("PG")
	if !ok || ov <= 0 {
		t.Fatalf("PG overhead = %v", ov)
	}
	// PG's overhead must exceed PM's: middle-layer detour plus processing.
	pmOv, _ := cr.PerFlowOverheadMs("PM")
	if ov <= pmOv {
		t.Fatalf("PG per-flow overhead %v should exceed PM's %v", ov, pmOv)
	}
}

func TestRuntimeHelpers(t *testing.T) {
	dep, flows := fixtures(t)
	cases, err := SweepOpts(dep, flows, 1, heuristics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pct, ok := cases[0].RuntimePct("PM", "PG")
	if !ok || pct <= 0 {
		t.Fatalf("RuntimePct = %v", pct)
	}
}

// TestQuartilesProperties checks ordering and bounding invariants on
// arbitrary integer samples.
func TestQuartilesProperties(t *testing.T) {
	prop := func(raw []int16) bool {
		values := make([]int, len(raw))
		lo, hi := math.MaxInt, math.MinInt
		for i, v := range raw {
			values[i] = int(v)
			if values[i] < lo {
				lo = values[i]
			}
			if values[i] > hi {
				hi = values[i]
			}
		}
		box := Quartiles(values)
		if len(values) == 0 {
			return box.N == 0
		}
		ordered := box.Min <= box.Q1 && box.Q1 <= box.Median &&
			box.Median <= box.Q3 && box.Q3 <= box.Max
		bounded := box.Min == float64(lo) && box.Max == float64(hi)
		return ordered && bounded && box.N == len(values)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
