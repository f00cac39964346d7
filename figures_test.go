package pmedic

// One test per table/figure of the paper's evaluation: each holds the data
// series behind its figure (workload + sweep + metric extraction) to the shape
// the paper reports. `go test .` is therefore the reproduction run; cmd/pmsim
// pretty-prints the same series. The tests share one sweep per failure depth.
// The TestFacade* tests at the end hold the workflow the commands run — one
// case solved, a sweep, a recovery applied to the simulator — end to end.
// Every performance number comes from ./benchmark (BENCHMARK.json), which has
// a per-layer metric for each hot path.

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// figureData is what the figure tests read: the deployment, the workload, one
// scenario context — the production configuration (cmd/pmsim shares a context
// the same way) — and the three fast comparators (Optimal has Fig. 7 — it is
// orders of magnitude slower by design) swept once over each failure depth.
type figureData struct {
	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	algs  []eval.Algorithm
	sweep [4][]*eval.CaseResult // by failure depth, 1 to 3
}

var buildFigures = sync.OnceValues(func() (*figureData, error) {
	dep, err := topo.ATT()
	if err != nil {
		return nil, err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return nil, err
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return nil, err
	}
	d := &figureData{dep: dep, flows: flows, ctx: ctx, algs: eval.Comparators(0, true)}
	for k := 1; k <= 3; k++ {
		if d.sweep[k], err = eval.SweepOpts(dep, flows, k, d.algs, eval.Options{Context: ctx}); err != nil {
			return nil, err
		}
	}
	return d, nil
})

func figures(t *testing.T) *figureData {
	t.Helper()
	d, err := buildFigures()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// solveCase runs one heuristic on a compiled case and evaluates its solution.
func solveCase(t *testing.T, sc *scenario.Instance, solve func(*core.Problem) (*core.Solution, error)) (*core.Solution, *core.Report) {
	t.Helper()
	sol, err := solve(sc.Problem)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	return sol, rep
}

// TestTableIII holds the controller/switch/flow-count table: the embedded
// topology plus the all-pairs shortest-path workload with programmability
// coefficients.
func TestTableIII(t *testing.T) {
	d := figures(t)
	if d.flows.Len() != 600 {
		t.Fatalf("flows = %d", d.flows.Len())
	}
	for _, c := range d.dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += d.flows.SwitchFlowCount(sw)
		}
		if load >= c.Capacity {
			t.Fatalf("controller at %d overloaded pre-failure", c.Site)
		}
	}
}

// --- Fig. 4: one controller failure (6 cases) ---

// TestFig4Programmability holds Fig. 4(a): per-flow programmability box
// statistics. Under one failure every algorithm matches.
func TestFig4Programmability(t *testing.T) {
	for _, c := range figures(t).sweep[1] {
		pm, _ := c.ProgBox("PM")
		rf, _ := c.ProgBox("RetroFlow")
		if pm.Median != rf.Median || pm.Min != rf.Min {
			t.Fatalf("case %s: single-failure box stats diverge (PM %+v, RetroFlow %+v)", c.Label, pm, rf)
		}
	}
}

// TestFig4TotalProgrammability holds Fig. 4(b): totals normalized to
// RetroFlow are 100% in every single-failure case.
func TestFig4TotalProgrammability(t *testing.T) {
	for _, c := range figures(t).sweep[1] {
		if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct < 99.99 {
			t.Fatalf("case %s: PM = %.1f%% of RetroFlow, want 100%%", c.Label, pct)
		}
	}
}

// TestFig4RecoveredFlows holds Fig. 4(c): 100% recovery for every algorithm
// under a single failure.
func TestFig4RecoveredFlows(t *testing.T) {
	for _, c := range figures(t).sweep[1] {
		for _, name := range []string{"PM", "RetroFlow", "PG"} {
			if pct, ok := c.RecoveredFlowPct(name); !ok || pct < 99.99 {
				t.Fatalf("case %s: %s recovered %.1f%%", c.Label, name, pct)
			}
		}
	}
}

// TestFig4Overhead holds Fig. 4(d): per-flow communication overhead; PG
// (middle layer) must be the worst.
func TestFig4Overhead(t *testing.T) {
	for _, c := range figures(t).sweep[1] {
		pm, _ := c.PerFlowOverheadMs("PM")
		pg, _ := c.PerFlowOverheadMs("PG")
		if pg <= pm {
			t.Fatalf("case %s: PG overhead %.2f <= PM %.2f", c.Label, pg, pm)
		}
	}
}

// --- Fig. 5: two controller failures (15 cases) ---

// TestFig5Programmability holds Fig. 5(a): PM keeps a balanced floor (min 2)
// while RetroFlow's min collapses to 0 in every case.
func TestFig5Programmability(t *testing.T) {
	for _, c := range figures(t).sweep[2] {
		pm, _ := c.ProgBox("PM")
		rf, _ := c.ProgBox("RetroFlow")
		if pm.Min < 2 {
			t.Fatalf("case %s: PM min %.0f < 2", c.Label, pm.Min)
		}
		if rf.Min != 0 {
			t.Fatalf("case %s: RetroFlow min %.0f != 0", c.Label, rf.Min)
		}
	}
}

// TestFig5TotalProgrammability holds Fig. 5(b): PM strictly beats RetroFlow
// everywhere, and the largest gap occurs in a case where the spare-capacity
// backup controller (site 16) is among the failed — the structural analog of
// the paper's headline case (13, 20).
func TestFig5TotalProgrammability(t *testing.T) {
	d := figures(t)
	worst := 0.0
	var worstCase *eval.CaseResult
	for _, c := range d.sweep[2] {
		pct, ok := c.TotalProgPctOf("PM", "RetroFlow")
		if !ok || pct <= 100 {
			t.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
		}
		if pct > worst {
			worst, worstCase = pct, c
		}
	}
	if worst < 150 {
		t.Fatalf("largest gap only %.0f%% at %s; the backup-failure spike is missing", worst, worstCase.Label)
	}
	if !failsSite(d.dep, worstCase, 16) {
		t.Fatalf("largest gap at %s (%.0f%%), want a case that kills the backup controller (site 16)",
			worstCase.Label, worst)
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

// TestFig5RecoveredFlows holds Fig. 5(c): PM and PG recover 100%, RetroFlow a
// strict subset.
func TestFig5RecoveredFlows(t *testing.T) {
	for _, c := range figures(t).sweep[2] {
		pm, _ := c.RecoveredFlowPct("PM")
		rf, _ := c.RecoveredFlowPct("RetroFlow")
		pg, _ := c.RecoveredFlowPct("PG")
		if pm < 99.99 || rf >= pm || pg < pm {
			t.Fatalf("case %s: PM %.0f%%, RetroFlow %.0f%%, PG %.0f%%", c.Label, pm, rf, pg)
		}
	}
}

// TestFig5RecoveredSwitches holds Fig. 5(d): recovered offline switches per
// algorithm.
func TestFig5RecoveredSwitches(t *testing.T) {
	for _, c := range figures(t).sweep[2] {
		pm, _ := c.RecoveredSwitchPct("PM")
		rf, _ := c.RecoveredSwitchPct("RetroFlow")
		if pm < rf {
			t.Fatalf("case %s: PM switches %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
		}
	}
}

// TestFig5ControllerLoad holds Fig. 5(e): control resource used per active
// controller.
func TestFig5ControllerLoad(t *testing.T) {
	for _, c := range figures(t).sweep[2] {
		loads, ok := c.ControllerLoadPct("PM")
		if !ok {
			t.Fatalf("case %s: no PM loads", c.Label)
		}
		for jj, pct := range loads {
			if pct > 100.0001 {
				t.Fatalf("case %s: controller %d at %.1f%%", c.Label, jj, pct)
			}
		}
	}
}

// TestFig5Overhead holds Fig. 5(f): per-flow communication overhead ordering
// PM < RetroFlow-or-PG, PG worst.
func TestFig5Overhead(t *testing.T) {
	for _, c := range figures(t).sweep[2] {
		pm, _ := c.PerFlowOverheadMs("PM")
		pg, _ := c.PerFlowOverheadMs("PG")
		if pg <= pm {
			t.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
		}
	}
}

// --- Fig. 6: three controller failures (20 cases) ---

// TestFig6Programmability holds Fig. 6(a).
func TestFig6Programmability(t *testing.T) {
	for _, c := range figures(t).sweep[3] {
		pm, _ := c.ProgBox("PM")
		rf, _ := c.ProgBox("RetroFlow")
		if pm.Median < rf.Median {
			t.Fatalf("case %s: PM median %.1f < RetroFlow %.1f", c.Label, pm.Median, rf.Median)
		}
	}
}

// TestFig6TotalProgrammability holds Fig. 6(b).
func TestFig6TotalProgrammability(t *testing.T) {
	for _, c := range figures(t).sweep[3] {
		if pct, ok := c.TotalProgPctOf("PM", "RetroFlow"); !ok || pct <= 100 {
			t.Fatalf("case %s: PM = %.1f%% of RetroFlow", c.Label, pct)
		}
	}
}

// TestFig6RecoveredFlows holds Fig. 6(c): under three failures capacity is
// scarce, so PM recovers 100% only in a subset of cases — and in the tight
// cases it still matches the flow-level PG.
func TestFig6RecoveredFlows(t *testing.T) {
	full, tight := 0, 0
	for _, c := range figures(t).sweep[3] {
		pm, _ := c.RecoveredFlowPct("PM")
		pg, _ := c.RecoveredFlowPct("PG")
		if pm >= 99.99 {
			full++
		} else {
			tight++
			if pg-pm > 1.0 {
				t.Fatalf("case %s: PM %.0f%% far below PG %.0f%%", c.Label, pm, pg)
			}
		}
	}
	if full == 0 || tight == 0 {
		t.Fatalf("expected a mix of full and tight cases, got %d/%d", full, tight)
	}
}

// TestFig6RecoveredSwitches holds Fig. 6(d).
func TestFig6RecoveredSwitches(t *testing.T) {
	for _, c := range figures(t).sweep[3] {
		pm, _ := c.RecoveredSwitchPct("PM")
		rf, _ := c.RecoveredSwitchPct("RetroFlow")
		if pm < rf {
			t.Fatalf("case %s: PM %.0f%% < RetroFlow %.0f%%", c.Label, pm, rf)
		}
	}
}

// TestFig6ControllerLoad holds Fig. 6(e): in tight cases PM saturates the
// surviving controllers.
func TestFig6ControllerLoad(t *testing.T) {
	for _, c := range figures(t).sweep[3] {
		if _, ok := c.ControllerLoadPct("PM"); !ok {
			t.Fatalf("case %s: missing loads", c.Label)
		}
	}
}

// TestFig6Overhead holds Fig. 6(f).
func TestFig6Overhead(t *testing.T) {
	for _, c := range figures(t).sweep[3] {
		pm, _ := c.PerFlowOverheadMs("PM")
		pg, _ := c.PerFlowOverheadMs("PG")
		if pg <= pm {
			t.Fatalf("case %s: PG %.2f <= PM %.2f", c.Label, pg, pm)
		}
	}
}

// --- Fig. 7: computation time, PM vs Optimal ---

// TestFig7ComputationTime holds the Fig. 7 comparison on one representative
// case per scenario size with a bounded exact solve. The budget is a fixed
// node count, not wall clock, so the work is deterministic (same tree, same
// incumbents on every run). PM must be orders of magnitude faster (the paper
// reports ~2% of Optimal's time).
func TestFig7ComputationTime(t *testing.T) {
	if testing.Short() {
		t.Skip("three node-budgeted exact solves")
	}
	d := figures(t)
	const nodeBudget = 256
	for _, failed := range [][]int{{4}, {3, 4}, {2, 3, 4}} {
		inst, err := d.ctx.Build(failed)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := core.PM(inst.Problem)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("case %v: PM (%v) not faster than Optimal (%v)", failed, warm.Runtime, sol.Runtime)
		}
	}
}

// --- ablations (design knobs called out in DESIGN.md) ---

// TestAblationPathCap sweeps the per-pair path-count cap, which bounds the p̄
// distribution's spread (and with it the inter-algorithm gaps): on {3,4} the
// largest p̄ reaches the cap, and PM's total programmability rises with it.
func TestAblationPathCap(t *testing.T) {
	d := figures(t)
	want := map[int]int{4: 1241, 12: 2084, 48: 2620}
	for _, cap := range []int{4, 12, 48} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			flows, err := flow.Generate(d.dep.Graph, flow.Options{Limit: cap})
			if err != nil {
				t.Fatal(err)
			}
			inst, err := scenario.Build(d.dep, flows, []int{3, 4})
			if err != nil {
				t.Fatal(err)
			}
			maxPBar := 0
			for _, pr := range inst.Problem.Pairs {
				maxPBar = max(maxPBar, pr.PBar)
			}
			if maxPBar != cap {
				t.Errorf("largest p̄ %d, want the cap %d", maxPBar, cap)
			}
			if _, rep := solveCase(t, inst, core.PM); rep.TotalProg != want[cap] {
				t.Errorf("PM's total programmability %d, want %d", rep.TotalProg, want[cap])
			}
		})
	}
}

// TestAblationPMIterations compares PM's balancing depth: a single sweep
// versus the paper's TOTAL_ITERATIONS sweeps. The further sweeps never lower
// the least programmability of any ATT case at depths 1–3, and they change
// 15 of the 62 solutions at depths 1–5.
func TestAblationPMIterations(t *testing.T) {
	d := figures(t)
	cases, differ := 0, 0
	for k := 1; k <= 5; k++ {
		for _, failed := range scenario.Combinations(len(d.dep.Controllers), k) {
			var sols [2]*core.Solution
			var reps [2]*core.Report
			for i, iters := range []int{1, 0} { // 0 = paper default
				inst, err := d.ctx.Build(failed)
				if err != nil {
					t.Fatal(err)
				}
				if iters > 0 {
					inst.Problem.TotalIterations = iters
				}
				sols[i], reps[i] = solveCase(t, inst, core.PM)
				sols[i].Runtime = 0
			}
			if k <= 3 && reps[1].MinProg < reps[0].MinProg {
				t.Errorf("case %v: min programmability %d after every sweep, %d after one", failed, reps[1].MinProg, reps[0].MinProg)
			}
			if !reflect.DeepEqual(sols[0], sols[1]) {
				differ++
			}
			cases++
		}
	}
	if cases != 62 || differ != 15 {
		t.Errorf("%d of %d solutions differ between one sweep and the default depth, want 15 of 62", differ, cases)
	}
}

// --- extensions (beyond the paper; see EXPERIMENTS.md) ---

// TestExtensionBehaviouralCheck applies PM's and RetroFlow's recovery of every
// ATT failure set (41 cases) to the behavioural simulator and holds the
// packet-level network to the analytic report: the simulator takes offline
// exactly the switches the case compiler does, every flow the solution
// recovers (programmability > 0) can be rerouted somewhere on its path,
// every pair the solution leaves in legacy mode at a mapped switch cannot be
// rerouted there, every offline flow still delivers, and a recovered flow
// rerouted at a switch where it is programmable is delivered through its new
// next hop.
func TestExtensionBehaviouralCheck(t *testing.T) {
	d := figures(t)
	algs := []struct {
		name  string
		solve func(*core.Problem) (*core.Solution, error)
	}{{"PM", core.PM}, {"RetroFlow", core.RetroFlow}}
	recovered, legacy := make([]int, len(algs)), 0
	for k := 1; k <= 3; k++ {
		for _, c := range d.sweep[k] {
			sc, err := scenario.Build(d.dep, d.flows, c.Failed)
			if err != nil {
				t.Fatal(err)
			}
			for a, alg := range algs {
				sol, _ := solveCase(t, sc, alg.solve)
				net, err := sdnsim.New(d.dep, d.flows)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range c.Failed {
					if err := net.StopController(j); err != nil {
						t.Fatal(err)
					}
				}
				if got := net.OfflineSwitches(); !slices.Equal(got, sc.Switches) {
					t.Fatalf("case %s, %s: the simulator took %v offline, the case compiler %v", c.Label, alg.name, got, sc.Switches)
				}
				if _, err := net.ApplyRecovery(sc, sol); err != nil {
					t.Fatalf("case %s, %s: %v", c.Label, alg.name, err)
				}
				p := sc.Problem
				for l, pro := range sol.FlowProgrammability(p) {
					if pro == 0 {
						continue
					}
					recovered[a]++
					if id := sc.FlowIDs[l]; !net.Programmable(id) {
						t.Fatalf("case %s, %s: flow %d recovered (pro=%d) but not reroutable", c.Label, alg.name, id, pro)
					}
				}
				for k, pr := range p.Pairs {
					if sol.SwitchController[pr.Switch] < 0 || sol.Active[k] {
						continue
					}
					legacy++
					if id, sw := sc.FlowIDs[pr.Flow], sc.Switches[pr.Switch]; net.ProgrammableAt(id, sw) {
						t.Fatalf("case %s, %s: flow %d in legacy mode at mapped switch %d is reroutable there", c.Label, alg.name, id, sw)
					}
				}
				for _, ids := range [][]flow.ID{sc.FlowIDs, sc.Unrecoverable} {
					for _, id := range ids {
						if tr, err := net.Inject(id); err != nil || !tr.Delivered {
							t.Fatalf("case %s, %s: flow %d not delivered after recovery: %v", c.Label, alg.name, id, err)
						}
					}
				}
				if !rerouteRecovered(net, sc, sol) {
					t.Fatalf("case %s, %s: no recovered flow could be rerouted and delivered through its new next hop", c.Label, alg.name)
				}
			}
		}
	}
	if recovered[0] == 0 || recovered[1] == 0 || legacy == 0 {
		t.Fatalf("nothing checked: %d PM and %d RetroFlow recovered flows, %d legacy pairs", recovered[0], recovered[1], legacy)
	}
	t.Logf("%d PM and %d RetroFlow recovered flows reroutable, %d legacy-mode pairs at mapped switches not", recovered[0], recovered[1], legacy)
}

// rerouteRecovered uses the programmability a recovery restored: it reroutes
// a recovered flow, at a switch where ProgrammableAt holds, through a next hop
// other than its entry's, and reports whether a packet of the flow then
// reaches its destination leaving that switch through the new hop. Reroute
// checks only that the new hop reaches the destination without the switch,
// not that the tables downstream agree, so a hop whose packet loops back is
// legal and the next candidate is tried. It leaves the network rerouted.
func rerouteRecovered(net *sdnsim.Network, sc *scenario.Instance, sol *core.Solution) bool {
	for l, pro := range sol.FlowProgrammability(sc.Problem) {
		if pro == 0 {
			continue
		}
		id := sc.FlowIDs[l]
		path := net.Flows.Flows[id].Path
		for _, sw := range path[:len(path)-1] {
			if !net.ProgrammableAt(id, sw) {
				continue
			}
			entry, _ := net.Switches[sw].Entry(id)
			for _, hop := range net.Dep.Graph.Neighbors(sw) {
				if hop == entry.NextHop || net.Reroute(id, sw, hop) != nil {
					continue
				}
				tr, err := net.Inject(id)
				if err != nil || !tr.Delivered {
					continue
				}
				if at := slices.Index(tr.Path, sw); at >= 0 && tr.Path[at+1] == hop {
					return true
				}
			}
		}
	}
	return false
}

// --- the workflow end to end, as cmd/pmsolve and cmd/pmsim run it ---

// TestFacadeEndToEnd holds the headline case (13, 16) — what `pmsolve -failed
// 13,16` solves — to its story: PM recovers every offline flow at a floor of
// 2, beats RetroFlow on recovered flows and on total programmability, and
// keeps the hub switch 13 by mapping it to a survivor with its flows split
// between SDN mode and the legacy table.
func TestFacadeEndToEnd(t *testing.T) {
	d := figures(t)
	sc, err := scenario.Build(d.dep, d.flows, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	pm, pmRep := solveCase(t, sc, core.PM)
	_, rfRep := solveCase(t, sc, core.RetroFlow)
	if pmRep.MinProg < 2 || pmRep.RecoveredFlows != sc.Problem.NumFlows {
		t.Fatalf("headline case: PM floor %d, recovered %d of %d", pmRep.MinProg, pmRep.RecoveredFlows, sc.Problem.NumFlows)
	}
	if pmRep.RecoveredFlows <= rfRep.RecoveredFlows {
		t.Fatalf("headline case: PM recovered %d, RetroFlow %d — PM must win", pmRep.RecoveredFlows, rfRep.RecoveredFlows)
	}
	if pmRep.TotalProg <= rfRep.TotalProg {
		t.Fatalf("headline case: PM total %d, RetroFlow %d", pmRep.TotalProg, rfRep.TotalProg)
	}
	hub := slices.Index(sc.Switches, 13)
	if hub < 0 || pm.SwitchController[hub] < 0 {
		t.Fatalf("hub switch 13 (offline index %d) not remapped by PM", hub)
	}
	lo, hi := sc.Problem.SwitchRun(hub)
	sdn := 0
	for k := lo; k < hi; k++ {
		if pm.Active[k] {
			sdn++
		}
	}
	if sdn == 0 || sdn == hi-lo {
		t.Fatalf("hub switch 13: %d of %d pairs in SDN mode, want a split", sdn, hi-lo)
	}
}

// TestFacadeSweep holds a sweep run without a shared context to one report
// per single-failure case and heuristic.
func TestFacadeSweep(t *testing.T) {
	d := figures(t)
	cases, err := eval.SweepOpts(d.dep, d.flows, 1, d.algs, eval.Options{})
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
	d := figures(t)
	n, err := sdnsim.New(d.dep, d.flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Build(d.dep, d.flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, _ := solveCase(t, sc, core.PM)
	if _, err := n.ApplyRecovery(sc, sol); err != nil {
		t.Fatal(err)
	}
	tr, err := n.Inject(sc.FlowIDs[0])
	if err != nil || !tr.Delivered {
		t.Fatalf("delivery after recovery: %v %+v", err, tr)
	}
}

func TestFacadeScenarioValidation(t *testing.T) {
	d := figures(t)
	if _, err := scenario.Build(d.dep, d.flows, nil); err == nil {
		t.Fatal("empty failure set must be rejected")
	}
	if _, err := scenario.Build(d.dep, d.flows, []int{0, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("all-failed must be rejected")
	}
}
