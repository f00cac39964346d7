package eval

import (
	"errors"
	"math"
	"slices"
	"sort"
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

// quartilesBySort is Quartiles computed from a sorted float64 copy, the
// reference Quartiles is pinned to.
func quartilesBySort(values []int) BoxStat {
	if len(values) == 0 {
		return BoxStat{}
	}
	xs := make([]float64, len(values))
	for i, v := range values {
		xs[i] = float64(v)
	}
	sort.Float64s(xs)
	quantile := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo >= len(xs)-1 {
			return xs[len(xs)-1]
		}
		frac := pos - float64(lo)
		return xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	return BoxStat{
		Min:    xs[0],
		Q1:     quantile(0.25),
		Median: quantile(0.5),
		Q3:     quantile(0.75),
		Max:    xs[len(xs)-1],
		N:      len(xs),
	}
}

// sameBits reports whether two boxes agree bit for bit.
func sameBits(a, b BoxStat) bool {
	af := [...]float64{a.Min, a.Q1, a.Median, a.Q3, a.Max}
	bf := [...]float64{b.Min, b.Q1, b.Median, b.Q3, b.Max}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return a.N == b.N
}

// TestQuartilesProperties checks ordering and bounding invariants on
// arbitrary integer samples, and that every box equals the sort-based
// reference bit for bit: on int16 samples, on samples within a few dozen of
// an arbitrary offset, at the ends of the int range, and on every report of
// the ATT sweep at depths 1–5.
func TestQuartilesProperties(t *testing.T) {
	check := func(values []int) bool {
		box := Quartiles(values)
		if !sameBits(box, quartilesBySort(values)) {
			t.Logf("%v: box %+v, the reference %+v", values, box, quartilesBySort(values))
			return false
		}
		if len(values) == 0 {
			return box.N == 0
		}
		lo, hi := slices.Min(values), slices.Max(values)
		ordered := box.Min <= box.Q1 && box.Q1 <= box.Median &&
			box.Median <= box.Q3 && box.Q3 <= box.Max
		bounded := box.Min == float64(lo) && box.Max == float64(hi)
		return ordered && bounded && box.N == len(values)
	}
	wide := func(raw []int16) bool {
		values := make([]int, len(raw))
		for i, v := range raw {
			values[i] = int(v)
		}
		return check(values)
	}
	narrow := func(raw []uint8, offset int32) bool {
		values := make([]int, len(raw))
		for i, v := range raw {
			values[i] = int(offset) + int(v%47)
		}
		return check(values)
	}
	for _, prop := range []any{wide, narrow} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
	for _, values := range [][]int{
		{math.MinInt, math.MaxInt},
		{math.MaxInt, math.MaxInt - 1, math.MaxInt, math.MaxInt - 3},
		{math.MinInt + 2, math.MinInt, math.MinInt, math.MinInt + 1, math.MinInt},
	} {
		if !check(values) {
			t.Fatalf("%v: wrong box", values)
		}
	}

	dep, flows := fixtures(t)
	reports := 0
	for k := 1; k <= 5; k++ {
		cases, err := SweepOpts(dep, flows, k, heuristics(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			for name, rep := range c.Reports {
				box, _ := c.ProgBox(name)
				if want := quartilesBySort(rep.FlowProg); !sameBits(box, want) {
					t.Fatalf("%s %s: box %+v, the reference %+v", c.Label, name, box, want)
				}
				reports++
			}
		}
	}
	if reports != 62*3 {
		t.Fatalf("%d ATT reports, want %d", reports, 62*3)
	}
}
