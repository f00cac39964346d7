package core_test

import (
	"sort"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// scaleSynContext compiles the scale-syn benchmark fixture at n nodes: a
// clustered synthetic WAN, all-pairs traffic, controller capacity 1.5× the
// heaviest domain load (benchmark/scale.go builds the same one at 1000 nodes,
// 50 controllers, 8 regions).
func scaleSynContext(t *testing.T, n, m, regions int) *scenario.Context {
	t.Helper()
	opts := topo.SyntheticOpts{Seed: 1, Regions: regions}
	dep, err := topo.SyntheticWithOpts(n, m, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		maxLoad = max(maxLoad, load)
	}
	if dep, err = topo.SyntheticWithOpts(n, m, maxLoad+maxLoad/2+1, opts); err != nil {
		t.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestScaleSynHeuristicsRecover takes every heuristic to 10⁶ flows: on each of
// scale-syn's six depth-1 failure sets, PM, RetroFlow and PG solve, the plan
// evaluates, and it recovers at least one flow.
func TestScaleSynHeuristicsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 999 000-flow fixture")
	}
	ctx := scaleSynContext(t, 1000, 50, 8)
	for _, set := range [][]int{{13}, {17}, {22}, {25}, {29}, {37}} {
		inst, err := ctx.Build(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []struct {
			name  string
			solve func(*core.Problem) (*core.Solution, error)
		}{{"PM", core.PM}, {"RetroFlow", core.RetroFlow}, {"PG", core.PG}} {
			sol, err := alg.solve(inst.Problem)
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Label(), alg.name, err)
			}
			rep, err := inst.Evaluate(sol)
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Label(), alg.name, err)
			}
			if rep.RecoveredFlows == 0 {
				t.Errorf("%s %s: recovered no flows", inst.Label(), alg.name)
			}
		}
	}
}

// minMs is the fastest of reps calls, in milliseconds.
func minMs(reps int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(time.Millisecond)
}

// crossoverRow is one failure case timed both ways, fastest of several runs.
type crossoverRow struct {
	nodes, flows, classes int
	flat, index, agg      float64
}

// timeBothPaths times the per-flow PM against the class index plus the
// aggregated PM on one case and requires the two to agree.
func timeBothPaths(t *testing.T, ctx *scenario.Context, nodes int, set []int, reps int) crossoverRow {
	t.Helper()
	inst, err := ctx.Build(set)
	if err != nil {
		t.Fatalf("%d nodes, case %v: %v", nodes, set, err)
	}
	p := inst.Problem
	r := crossoverRow{nodes: nodes, flows: p.NumFlows}
	var flat, agg *core.Solution
	r.flat = minMs(reps, func() { flat, err = core.PMFlat(p) })
	if err != nil {
		t.Fatal(err)
	}
	r.index = minMs(reps, func() {
		core.DropClassIndex(p)
		r.classes = core.NumClasses(p)
	})
	var ok bool
	r.agg = minMs(reps, func() { agg, ok, err = core.PMAgg(p) })
	if err != nil || !ok {
		t.Fatalf("%d nodes, case %v: aggregated PM: ok=%v err=%v", nodes, set, ok, err)
	}
	requireSameSolution(t, inst.Label(), flat, agg)
	return r
}

// TestAggCrossoverTable regenerates the table behind aggMinFlows (DESIGN.md
// §13.3): per failure case of the scale-syn fixture at five sizes, the per-flow
// PM against the class index plus the aggregated PM, fastest of several runs
// each, and then the same two paths summed over ATT's 41 depth-1–3 cases (the
// sweep-att workload). The times are logged, not asserted — run it with
//
//	go test -run TestAggCrossoverTable -v ./internal/core/
//
// — what it asserts is that the two paths agree at sizes the randomized
// property test never reaches, and that the two real workloads sit on either
// side of aggMinFlows: every ATT case below it, every 1000-node scale-syn case
// above it.
func TestAggCrossoverTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 999 000-flow fixture")
	}
	var rows []crossoverRow
	for _, shape := range []struct {
		n, m, regions int
		cases         [][]int
	}{
		{100, 5, 2, [][]int{{0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{200, 10, 4, [][]int{{0}, {2}, {4}, {6}, {0, 1}, {2, 3}, {4, 5}, {6, 7}}},
		{300, 15, 4, [][]int{{0}, {3}, {6}, {9}, {0, 1}, {3, 4}, {6, 7}, {9, 10}}},
		{500, 25, 8, [][]int{{0}, {6}, {12}, {18}, {0, 1}, {6, 7}, {12, 13}, {18, 19}}},
		// benchmark/scale.go's scaleCases.
		{1000, 50, 8, [][]int{
			{13}, {17}, {22}, {25}, {29}, {37},
			{13, 14}, {24, 25}, {25, 26}, {26, 27}, {29, 30}, {37, 38},
		}},
	} {
		ctx := scaleSynContext(t, shape.n, shape.m, shape.regions)
		reps := 9
		if shape.n >= 500 {
			reps = 3
		}
		for _, set := range shape.cases {
			r := timeBothPaths(t, ctx, shape.n, set, reps)
			if shape.n == 1000 && r.flows < core.AggMinFlows {
				t.Errorf("scale-syn case %v: %d flows, below aggMinFlows", set, r.flows)
			}
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].flows < rows[b].flows })
	t.Logf("aggMinFlows = %d", core.AggMinFlows)
	t.Logf("%5s %7s %7s %11s %8s %8s %8s %9s %9s  %s",
		"nodes", "flows", "classes", "flows/class", "flat ms", "index ms", "agg ms", "agg+index", "agg/flat", "PM runs")
	for _, r := range rows {
		runs := "flat"
		if r.flows >= core.AggMinFlows && 2*r.classes <= r.flows {
			runs = "agg"
		}
		t.Logf("%5d %7d %7d %11.1f %8.2f %8.2f %8.2f %9.2f %9.2f  %s",
			r.nodes, r.flows, r.classes, float64(r.flows)/float64(r.classes),
			r.flat, r.index, r.agg, r.index+r.agg, (r.index+r.agg)/r.flat, runs)
	}

	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	var att crossoverRow
	sets := scenario.CombinationsUpTo(len(dep.Controllers), 3)
	for _, set := range sets {
		r := timeBothPaths(t, ctx, dep.Graph.NumNodes(), set, 9)
		if r.flows >= core.AggMinFlows {
			t.Errorf("ATT case %v: %d flows, not below aggMinFlows", set, r.flows)
		}
		att.flows, att.classes = max(att.flows, r.flows), max(att.classes, r.classes)
		att.flat, att.index, att.agg = att.flat+r.flat, att.index+r.index, att.agg+r.agg
	}
	t.Logf("ATT, %d depth-1–3 cases summed (up to %d flows and %d classes a case; PM runs flat): flat %.2f ms, index %.2f ms, agg %.2f ms, agg+index %.2f ms = %.2f× flat",
		len(sets), att.flows, att.classes, att.flat, att.index, att.agg, att.index+att.agg, (att.index+att.agg)/att.flat)
}
