package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/israce"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// randAggProblem builds a finalized random Problem with deliberately
// duplicated flow signatures (so classes have many members), weighted flows,
// occasional zero-pair flows, delay ties, and capacities scarce enough to cut
// classes mid-way — the regime where the aggregated solvers must fall back
// to per-copy walks and any order discrepancy against the flat path shows.
func randAggProblem(rng *rand.Rand) *core.Problem {
	n := 2 + rng.Intn(8)
	m := 1 + rng.Intn(5)
	numSigs := 1 + rng.Intn(6)
	numFlows := 40 + rng.Intn(160)

	type sigPair struct{ sw, pbar int }
	sigs := make([][]sigPair, numSigs)
	for s := range sigs {
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sigs[s] = append(sigs[s], sigPair{i, 2 + rng.Intn(5)})
			}
		}
		// A signature may be empty: zero-pair flows stay at the floor forever
		// and must pin σ at 0 in both paths.
	}

	p := &core.Problem{
		NumSwitches:    n,
		NumControllers: m,
		NumFlows:       numFlows,
	}
	for l := 0; l < numFlows; l++ {
		sig := sigs[rng.Intn(numSigs)]
		if rng.Intn(8) == 0 {
			// Occasionally a unique signature: singleton classes must
			// coexist with fat ones.
			sig = nil
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sig = append(sig, sigPair{i, 2 + rng.Intn(5)})
				}
			}
		}
		for _, sp := range sig {
			p.Pairs = append(p.Pairs, core.Pair{Switch: sp.sw, Flow: l, PBar: sp.pbar})
		}
	}
	sort.Slice(p.Pairs, func(a, b int) bool {
		if p.Pairs[a].Switch != p.Pairs[b].Switch {
			return p.Pairs[a].Switch < p.Pairs[b].Switch
		}
		return p.Pairs[a].Flow < p.Pairs[b].Flow
	})

	p.Gamma = make([]int, n)
	for i := range p.Gamma {
		p.Gamma[i] = 1 + rng.Intn(60)
	}
	p.Rest = make([]int, m)
	for j := range p.Rest {
		// Scarce on average: total capacity usually below the pair count.
		p.Rest[j] = rng.Intn(len(p.Pairs)/m + 2)
	}
	p.Delay = make([][]float64, n)
	for i := range p.Delay {
		row := make([]float64, m)
		for j := range row {
			// Integer delays produce frequent ties, exercising the
			// deterministic tie-breaks in both paths.
			row[j] = float64(rng.Intn(12))
		}
		p.Delay[i] = row
	}
	return p
}

// zeroRuntime clears the wall-clock field so solutions compare structurally.
func zeroRuntime(s *core.Solution) *core.Solution {
	s.Runtime = 0
	return s
}

func requireSameSolution(t *testing.T, tag string, flat, agg *core.Solution) {
	t.Helper()
	if !reflect.DeepEqual(zeroRuntime(flat), zeroRuntime(agg)) {
		t.Fatalf("%s: aggregated solution differs from flat\nflat: %+v\nagg:  %+v", tag, flat, agg)
	}
}

func requireSameReport(t *testing.T, tag string, p *core.Problem, flat, agg *core.Solution, opts core.EvaluateOptions) {
	t.Helper()
	rf, err := core.Evaluate(p, flat, opts)
	if err != nil {
		t.Fatalf("%s: evaluate flat: %v", tag, err)
	}
	ra, err := core.Evaluate(p, agg, opts)
	if err != nil {
		t.Fatalf("%s: evaluate agg: %v", tag, err)
	}
	rf.Runtime, ra.Runtime = 0, 0
	if !reflect.DeepEqual(rf, ra) {
		t.Fatalf("%s: aggregated report differs from flat\nflat: %+v\nagg:  %+v", tag, rf, ra)
	}
}

func checkAggEquivalence(t *testing.T, tag string, p *core.Problem, opts core.EvaluateOptions) {
	t.Helper()
	pmFlat, err := core.PMFlat(p)
	if err != nil {
		t.Fatalf("%s: pm flat: %v", tag, err)
	}
	pmA, ok, err := core.PMAgg(p)
	if err != nil {
		t.Fatalf("%s: pm agg: %v", tag, err)
	}
	if !ok {
		t.Fatalf("%s: problem unexpectedly not aggregable", tag)
	}
	requireSameSolution(t, tag+"/PM", pmFlat, pmA)
	requireSameReport(t, tag+"/PM", p, pmFlat, pmA, core.EvaluateOptions{})

	pgFlat, err := core.PGFlat(p)
	if err != nil {
		t.Fatalf("%s: pg flat: %v", tag, err)
	}
	pgA, _, err := core.PGAgg(p)
	if err != nil {
		t.Fatalf("%s: pg agg: %v", tag, err)
	}
	requireSameSolution(t, tag+"/PG", pgFlat, pgA)
	requireSameReport(t, tag+"/PG", p, pgFlat, pgA, opts)

	rfFlat, err := core.RetroFlowFlat(p)
	if err != nil {
		t.Fatalf("%s: retroflow flat: %v", tag, err)
	}
	rfA, _, err := core.RetroFlowAgg(p)
	if err != nil {
		t.Fatalf("%s: retroflow agg: %v", tag, err)
	}
	requireSameSolution(t, tag+"/RetroFlow", rfFlat, rfA)
	requireSameReport(t, tag+"/RetroFlow", p, rfFlat, rfA, core.EvaluateOptions{})
}

// TestRetroFlowAggMatchesFlatRandom pins the switch-level baseline's
// aggregated path against its per-flow reference on its own seed range, in
// addition to the shared checkAggEquivalence coverage above: RetroFlow's
// greedy reads γ and density ratios no other solver touches.
func TestRetroFlowAggMatchesFlatRandom(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(7000 + it)))
		p := randAggProblem(rng)
		if len(p.Pairs) == 0 {
			continue
		}
		if err := p.Finalize(); err != nil {
			t.Fatalf("iter %d: finalize: %v", it, err)
		}
		p.BudgetMs = p.IdealDelayBudget()
		flat, err := core.RetroFlowFlat(p)
		if err != nil {
			t.Fatalf("iter %d: flat: %v", it, err)
		}
		agg, ok, err := core.RetroFlowAgg(p)
		if err != nil {
			t.Fatalf("iter %d: agg: %v", it, err)
		}
		if !ok {
			t.Fatalf("iter %d: problem unexpectedly not aggregable", it)
		}
		requireSameSolution(t, t.Name(), flat, agg)
		requireSameReport(t, t.Name(), p, flat, agg, core.EvaluateOptions{})
	}
}

// TestClassIndexMatchesReference pins the hash-grouped class index against
// the sort-based reference on the same adversarial problems (duplicated,
// unique and empty signatures). The second pass hands both a constant hash:
// every flow then collides with every class, and only the exact signature
// compare on a hash match keeps the classes apart.
func TestClassIndexMatchesReference(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for it := 0; it < iters; it++ {
		p := randAggProblem(rand.New(rand.NewSource(int64(9000 + it))))
		if len(p.Pairs) == 0 {
			continue
		}
		if err := p.Finalize(); err != nil {
			t.Fatalf("iter %d: finalize: %v", it, err)
		}
		for _, constantHash := range []bool{false, true} {
			if err := core.ClassIndexVsReference(p, constantHash); err != nil {
				t.Fatalf("iter %d (constant hash %v): %v", it, constantHash, err)
			}
		}
	}
}

// TestAggMatchesFlatRandom is the core equivalence property: on randomized
// problems the class-aggregated PM/PG must produce byte-identical Solutions
// and Reports to the per-flow reference paths.
func TestAggMatchesFlatRandom(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(1000 + it)))
		p := randAggProblem(rng)
		if len(p.Pairs) == 0 {
			continue
		}
		if err := p.Finalize(); err != nil {
			t.Fatalf("iter %d: finalize: %v", it, err)
		}
		p.BudgetMs = p.IdealDelayBudget()
		checkAggEquivalence(t, t.Name(), p, core.EvaluateOptions{})
	}
}

// TestAggMatchesFlatSweep runs the same equivalence over real scenario
// instances: synthetic topologies, all-pairs flows, and every failure case of
// the sweep depths the figures use.
func TestAggMatchesFlatSweep(t *testing.T) {
	type cfg struct{ n, m, capacity, depth int }
	cfgs := []cfg{
		{30, 4, 1600, 1},
		{48, 5, 4200, 2},
	}
	if testing.Short() {
		cfgs = cfgs[:1]
	}
	for _, c := range cfgs {
		dep, err := topo.Synthetic(c.n, c.m, c.capacity)
		if err != nil {
			t.Fatalf("synthetic(%d,%d): %v", c.n, c.m, err)
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			t.Fatalf("flows: %v", err)
		}
		ctx, err := scenario.NewContext(dep, flows)
		if err != nil {
			t.Fatalf("context: %v", err)
		}
		tested := 0
		for depth := 1; depth <= c.depth; depth++ {
			for _, failed := range scenario.Combinations(c.m, depth) {
				inst, err := ctx.Build(failed)
				if err != nil {
					continue // infeasible case (e.g. overload) — not under test
				}
				tested++
				tag := t.Name()
				checkAggEquivalence(t, tag, inst.Problem, core.EvaluateOptions{MiddleDelay: inst.MiddleDelay})
			}
		}
		if tested == 0 {
			t.Fatalf("cfg %+v: no feasible failure case was tested", c)
		}
	}
}

// TestPMAllocs bounds the allocations of a warm PM solve on the paper's
// headline case (ATT, controllers 3 and 4 down, 600 flows: the flat path).
// The solver's working state is pooled; what remains is the returned
// Solution, so any fifth allocation is scratch that escaped the pool.
func TestPMAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := core.PM(inst.Problem); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("warm core.PM = %.0f allocs/op, want <= 4", allocs)
	}
}
