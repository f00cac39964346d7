package pmedic

// One benchmark per table/figure of the paper's evaluation: each bench
// regenerates the data series behind its figure (workload + sweep + metric
// extraction) once per iteration and sanity-checks the reproduced shape.
// `go test -run '^$' -bench . -benchtime 1x .` is therefore the reproduction
// run; cmd/pmsim pretty-prints the same series. These benches assert shape,
// not speed: every performance number comes from ./benchmark (BENCHMARK.json),
// which has a per-layer metric for each hot path.

import (
	"fmt"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// heuristicAlgorithms are the three fast comparators (Optimal has its own
// benches — it is orders of magnitude slower by design).
func heuristicAlgorithms() []eval.Algorithm {
	return []eval.Algorithm{
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

// benchFixtures builds the shared inputs of a figure bench: the deployment,
// the workload, and one scenario context reused across every sweep — the
// production configuration (cmd/pmsim shares a context the same way). The
// callers ResetTimer after fixtures, so benches time the sweep engine.
func benchFixtures(b *testing.B) (*topo.Deployment, *flow.Set, *scenario.Context) {
	b.Helper()
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		b.Fatal(err)
	}
	return dep, flows, ctx
}

func sweep(b *testing.B, dep *topo.Deployment, flows *flow.Set, ctx *scenario.Context, k int) []*eval.CaseResult {
	b.Helper()
	cases, err := eval.SweepOpts(dep, flows, k, heuristicAlgorithms(), eval.Options{Context: ctx})
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

// BenchmarkTableIII regenerates the controller/switch/flow-count table: the
// embedded topology plus the all-pairs shortest-path workload with
// programmability coefficients.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dep, err := topo.ATT()
		if err != nil {
			b.Fatal(err)
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if flows.Len() != 600 {
			b.Fatalf("flows = %d", flows.Len())
		}
		for _, c := range dep.Controllers {
			load := 0
			for _, sw := range c.Domain {
				load += flows.SwitchFlowCount(sw)
			}
			if load >= c.Capacity {
				b.Fatalf("controller at %d overloaded pre-failure", c.Site)
			}
		}
	}
}

// --- Fig. 4: one controller failure (6 cases) ---

// BenchmarkFig4Programmability regenerates Fig. 4(a): per-flow
// programmability box statistics. Under one failure every algorithm matches.
func BenchmarkFig4Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Median != rf.Median || pm.Min != rf.Min {
				b.Fatalf("case %s: single-failure box stats diverge (PM %+v, RetroFlow %+v)", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig4TotalProgrammability regenerates Fig. 4(b): totals normalized
// to RetroFlow are 100% in every single-failure case.
func BenchmarkFig4TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct < 99.99 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow, want 100%%", c.Label, pct)
			}
		}
	}
}

// BenchmarkFig4RecoveredFlows regenerates Fig. 4(c): 100% recovery for every
// algorithm under a single failure.
func BenchmarkFig4RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			for _, name := range []string{"PM", "RetroFlow", "PG"} {
				if pct, ok := c.RecoveredFlowPct(name); !ok || pct < 99.99 {
					b.Fatalf("case %s: %s recovered %.1f%%", c.Label, name, pct)
				}
			}
		}
	}
}

// BenchmarkFig4Overhead regenerates Fig. 4(d): per-flow communication
// overhead; PG (middle layer) must be the worst.
func BenchmarkFig4Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 1) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG overhead %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 5: two controller failures (15 cases) ---

// BenchmarkFig5Programmability regenerates Fig. 5(a): PM keeps a balanced
// floor (min 2) while RetroFlow's min collapses to 0 in every case.
func BenchmarkFig5Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Min < 2 {
				b.Fatalf("case %s: PM min %.0f < 2", c.Label, pm.Min)
			}
			if rf.Min != 0 {
				b.Fatalf("case %s: RetroFlow min %.0f != 0", c.Label, rf.Min)
			}
		}
	}
}

// BenchmarkFig5TotalProgrammability regenerates Fig. 5(b): PM strictly
// beats RetroFlow everywhere, and the largest gap occurs in a case where
// the spare-capacity backup controller (site 16) is among the failed — the
// structural analog of the paper's headline case (13, 20).
func BenchmarkFig5TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := 0.0
		var worstCase *eval.CaseResult
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pct, ok := c.TotalProgPctOf("PM", "RetroFlow")
			if !ok || pct <= 100 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
			}
			if pct > worst {
				worst, worstCase = pct, c
			}
		}
		if worst < 150 {
			b.Fatalf("largest gap only %.0f%% at %s; the backup-failure spike is missing", worst, worstCase.Label)
		}
		if !failsSite(dep, worstCase, 16) {
			b.Fatalf("largest gap at %s (%.0f%%), want a case that kills the backup controller (site 16)",
				worstCase.Label, worst)
		}
	}
}

// failsSite reports whether the case's failed set includes the controller
// hosted at the given site, by inspecting the failed controller indices
// rather than scanning the display label for a digit substring (which would
// also match e.g. site 6 next to a 1, or a site "160").
func failsSite(dep *topo.Deployment, c *eval.CaseResult, site topo.NodeID) bool {
	for _, j := range c.Failed {
		if j >= 0 && j < len(dep.Controllers) && dep.Controllers[j].Site == site {
			return true
		}
	}
	return false
}

// BenchmarkFig5RecoveredFlows regenerates Fig. 5(c): PM and PG recover 100%,
// RetroFlow a strict subset.
func BenchmarkFig5RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.RecoveredFlowPct("PM")
			rf, _ := c.RecoveredFlowPct("RetroFlow")
			if pm < 99.99 || rf >= pm {
				b.Fatalf("case %s: PM %.0f%%, RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig5RecoveredSwitches regenerates Fig. 5(d): recovered offline
// switches per algorithm.
func BenchmarkFig5RecoveredSwitches(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.RecoveredSwitchPct("PM")
			rf, _ := c.RecoveredSwitchPct("RetroFlow")
			if pm < rf {
				b.Fatalf("case %s: PM switches %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig5ControllerLoad regenerates Fig. 5(e): control resource used
// per active controller.
func BenchmarkFig5ControllerLoad(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			loads, ok := c.ControllerLoadPct("PM")
			if !ok {
				b.Fatalf("case %s: no PM loads", c.Label)
			}
			for jj, pct := range loads {
				if pct > 100.0001 {
					b.Fatalf("case %s: controller %d at %.1f%%", c.Label, jj, pct)
				}
			}
		}
	}
}

// BenchmarkFig5Overhead regenerates Fig. 5(f): per-flow communication
// overhead ordering PM < RetroFlow-or-PG, PG worst.
func BenchmarkFig5Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 2) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 6: three controller failures (20 cases) ---

// BenchmarkFig6Programmability regenerates Fig. 6(a).
func BenchmarkFig6Programmability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.ProgBox("PM")
			rf, _ := c.ProgBox("RetroFlow")
			if pm.Median < rf.Median {
				b.Fatalf("case %s: PM median %.1f < RetroFlow %.1f", c.Label, pm.Median, rf.Median)
			}
		}
	}
}

// BenchmarkFig6TotalProgrammability regenerates Fig. 6(b).
func BenchmarkFig6TotalProgrammability(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct <= 100 {
				b.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
			}
		}
	}
}

// BenchmarkFig6RecoveredFlows regenerates Fig. 6(c): under three failures
// capacity is scarce, so PM recovers 100% only in a subset of cases — and in
// the tight cases it still matches the flow-level PG.
func BenchmarkFig6RecoveredFlows(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, tight := 0, 0
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.RecoveredFlowPct("PM")
			pg, _ := c.RecoveredFlowPct("PG")
			if pm >= 99.99 {
				full++
			} else {
				tight++
				if pg-pm > 1.0 {
					b.Fatalf("case %s: PM %.0f%% far below PG %.0f%%", c.Label, pm, pg)
				}
			}
		}
		if full == 0 || tight == 0 {
			b.Fatalf("expected a mix of full and tight cases, got %d/%d", full, tight)
		}
	}
}

// BenchmarkFig6RecoveredSwitches regenerates Fig. 6(d).
func BenchmarkFig6RecoveredSwitches(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.RecoveredSwitchPct("PM")
			rf, _ := c.RecoveredSwitchPct("RetroFlow")
			if pm < rf {
				b.Fatalf("case %s: PM %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
			}
		}
	}
}

// BenchmarkFig6ControllerLoad regenerates Fig. 6(e): in tight cases PM
// saturates the surviving controllers.
func BenchmarkFig6ControllerLoad(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			if _, ok := c.ControllerLoadPct("PM"); !ok {
				b.Fatalf("case %s: missing loads", c.Label)
			}
		}
	}
}

// BenchmarkFig6Overhead regenerates Fig. 6(f).
func BenchmarkFig6Overhead(b *testing.B) {
	dep, flows, ctx := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sweep(b, dep, flows, ctx, 3) {
			pm, _ := c.PerFlowOverheadMs("PM")
			pg, _ := c.PerFlowOverheadMs("PG")
			if pg <= pm {
				b.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
			}
		}
	}
}

// --- Fig. 7: computation time, PM vs Optimal ---

// BenchmarkFig7ComputationTime regenerates the Fig. 7 comparison on one
// representative case per scenario size with a bounded exact solve. The
// budget is a fixed node count, not wall clock: a time-limited solve always
// costs its own limit, so ns/op would measure the budget rather than the
// solver, and no optimization could ever show up. With the node budget the
// work is deterministic (same tree, same incumbents on every run) and ns/op
// tracks branch-&-bound throughput. PM must be orders of magnitude faster
// (the paper reports ~2% of Optimal's time).
func BenchmarkFig7ComputationTime(b *testing.B) {
	_, _, ctx := benchFixtures(b)
	cases := [][]int{{4}, {3, 4}, {2, 3, 4}}
	const nodeBudget = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, failed := range cases {
			inst, err := ctx.Build(failed)
			if err != nil {
				b.Fatal(err)
			}
			warm, err := core.PM(inst.Problem)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := opt.Solve(inst.Problem, opt.Options{
				TimeLimit: time.Hour, // the node budget is the binding limit
				MaxNodes:  nodeBudget,
				Warm:      warm,
			})
			if err != nil {
				continue // no incumbent within the node budget: still informative
			}
			if warm.Runtime >= sol.Runtime {
				b.Fatalf("case %v: PM (%v) not faster than Optimal (%v)", failed, warm.Runtime, sol.Runtime)
			}
		}
	}
}

// --- ablations (design knobs called out in DESIGN.md) ---

// BenchmarkAblationSlack sweeps the path-counting hop slack: looser bounds
// inflate p̄ and slow counting.
func BenchmarkAblationSlack(b *testing.B) {
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	for _, slack := range []int{1, 2} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := flow.Generate(dep.Graph, flow.Options{Slack: slack}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPathCap sweeps the per-pair path-count cap, which bounds
// the p̄ distribution's spread (and with it the inter-algorithm gaps).
func BenchmarkAblationPathCap(b *testing.B) {
	dep, err := topo.ATT()
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{4, 12, 48} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			flows, err := flow.Generate(dep.Graph, flow.Options{Limit: cap})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := scenario.Build(dep, flows, []int{3, 4})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.PM(inst.Problem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPMIterations compares PM's balancing depth: a single
// sweep versus the paper's TOTAL_ITERATIONS sweeps.
func BenchmarkAblationPMIterations(b *testing.B) {
	_, _, ctx := benchFixtures(b)
	for _, iters := range []int{1, 0} { // 0 = paper default
		name := "default"
		if iters == 1 {
			name = "single-sweep"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst, err := ctx.Build([]int{3, 4})
				if err != nil {
					b.Fatal(err)
				}
				if iters > 0 {
					inst.Problem.TotalIterations = iters
				}
				if _, err := core.PM(inst.Problem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- extension benches (beyond the paper; see EXPERIMENTS.md) ---

// BenchmarkExtensionCascade measures a cascading-failure episode per
// algorithm granularity and asserts the robustness ordering: at the same
// trigger, switch-level recovery never outlives per-flow recovery.
func BenchmarkExtensionCascade(b *testing.B) {
	dep, flows, _ := benchFixtures(b)
	algs := heuristicAlgorithms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmRes, err := eval.Cascade(dep, flows, []int{3}, algs[0], 0.95)
		if err != nil {
			b.Fatal(err)
		}
		rfRes, err := eval.Cascade(dep, flows, []int{3}, algs[1], 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if pmRes.Collapsed && !rfRes.Collapsed {
			b.Fatal("PM cascaded further than RetroFlow at the same trigger")
		}
	}
}

// BenchmarkExtensionSuccessiveChurn measures recovery churn across a
// two-step successive failure.
func BenchmarkExtensionSuccessiveChurn(b *testing.B) {
	dep, flows, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, err := scenario.BuildSuccessive(dep, flows, []int{3, 4})
		if err != nil {
			b.Fatal(err)
		}
		prev, err := core.PM(steps[0].Instance.Problem)
		if err != nil {
			b.Fatal(err)
		}
		next, err := core.PM(steps[1].Instance.Problem)
		if err != nil {
			b.Fatal(err)
		}
		churn := eval.Churn(steps[0].Instance, prev, steps[1].Instance, next)
		if churn.CommonSwitches == 0 {
			b.Fatal("no common switches across successive steps")
		}
	}
}
