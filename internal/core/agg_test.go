package core_test

import (
	"fmt"
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
// classes mid-way — the regime where the aggregated solver must fall back
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

// hubAggProblem builds the carrier-scale shape randAggProblem's sizes never
// reach: one hub switch (0) holding a pair of every flow, each flow owning
// zero to seven further pairs elsewhere — so the hub's floor pairs span
// alternatives 1…8 — drawn from a small signature pool so classes stay fat,
// and a hub controller whose capacity runs out in the middle of an
// alternatives level. The order pmFlat's per-switch sort hands out that
// capacity in (alternatives ascending, flow ascending within a level) is then
// observable, and pinned against pmAgg's merged walk.
func hubAggProblem(rng *rand.Rand, numFlows int) *core.Problem {
	const n, m = 9, 2
	type sigPair struct{ sw, pbar int }
	sigs := make([][]sigPair, 24)
	for s := range sigs {
		sigs[s] = []sigPair{{0, 2 + rng.Intn(3)}}
		// s%8 extra pairs: every alternatives level 1…8 has three signatures.
		for _, i := range rng.Perm(n - 1)[:s%8] {
			sigs[s] = append(sigs[s], sigPair{1 + i, 2 + rng.Intn(5)})
		}
		sort.Slice(sigs[s], func(a, b int) bool { return sigs[s][a].sw < sigs[s][b].sw })
	}
	p := &core.Problem{NumSwitches: n, NumControllers: m, NumFlows: numFlows}
	bySwitch := make([][]core.Pair, n)
	for l := 0; l < numFlows; l++ {
		for _, sp := range sigs[rng.Intn(len(sigs))] {
			bySwitch[sp.sw] = append(bySwitch[sp.sw], core.Pair{Switch: sp.sw, Flow: l, PBar: sp.pbar})
		}
	}
	for _, pairs := range bySwitch {
		p.Pairs = append(p.Pairs, pairs...)
	}
	p.Gamma = make([]int, n)
	p.Delay = make([][]float64, n)
	for i := range p.Gamma {
		p.Gamma[i] = numFlows
		p.Delay[i] = []float64{float64(1 + i%2), float64(2 - i%2)}
	}
	// No controller can take the hub whole (γ) or even its pair count, so it
	// lands on the larger one, which funds about 5/12 of its pairs: the cut
	// falls inside alternatives level 4.
	p.Rest = []int{numFlows * 5 / 12, numFlows / 4}
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

func requireSameReport(t *testing.T, tag string, p *core.Problem, flat, agg *core.Solution) {
	t.Helper()
	rf, err := core.Evaluate(p, flat, core.EvaluateOptions{})
	if err != nil {
		t.Fatalf("%s: evaluate flat: %v", tag, err)
	}
	ra, err := core.Evaluate(p, agg, core.EvaluateOptions{})
	if err != nil {
		t.Fatalf("%s: evaluate agg: %v", tag, err)
	}
	rf.Runtime, ra.Runtime = 0, 0
	if !reflect.DeepEqual(rf, ra) {
		t.Fatalf("%s: aggregated report differs from flat\nflat: %+v\nagg:  %+v", tag, rf, ra)
	}
}

// checkAggEquivalence solves p both ways, requires identical Solutions and
// Reports, and returns the solution.
func checkAggEquivalence(t *testing.T, tag string, p *core.Problem) *core.Solution {
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
	requireSameReport(t, tag+"/PM", p, pmFlat, pmA)
	return pmFlat
}

// flowMajorProblem hand-builds a problem whose Pairs are listed flow by flow,
// the order Finalize has to turn switch-major itself: numFlows flows over 80
// switches, half of them sharing 64 signatures and the rest spread over a pool
// of thousands, with flow 0 given pairs at its first flow0Pairs switches.
func flowMajorProblem(rng *rand.Rand, numFlows, flow0Pairs int) *core.Problem {
	const numSwitches = 80
	type sigPair struct{ sw, pbar int }
	pool := make([][]sigPair, 1<<12)
	for s := range pool {
		for i := 0; i < numSwitches; i++ {
			if rng.Intn(20) == 0 {
				pool[s] = append(pool[s], sigPair{i, 2 + rng.Intn(3)})
			}
		}
	}
	p := &core.Problem{
		NumSwitches:    numSwitches,
		NumControllers: 2,
		NumFlows:       numFlows,
		Rest:           []int{numFlows, numFlows / 2},
		Gamma:          make([]int, numSwitches),
		Delay:          make([][]float64, numSwitches),
	}
	for i := range p.Delay {
		p.Gamma[i] = numFlows
		p.Delay[i] = []float64{float64(1 + i%3), float64(3 - i%3)}
	}
	for i := 0; i < flow0Pairs; i++ {
		p.Pairs = append(p.Pairs, core.Pair{Switch: i, Flow: 0, PBar: 2 + i%2})
	}
	for l := 1; l < numFlows; l++ {
		sig := pool[rng.Intn(64)]
		if l%2 == 0 {
			sig = pool[rng.Intn(len(pool))]
		}
		for _, sp := range sig {
			p.Pairs = append(p.Pairs, core.Pair{Switch: sp.sw, Flow: l, PBar: sp.pbar})
		}
	}
	return p
}

// pbarFanProblem hand-builds a problem whose flows all share one pair at
// switch 0 and then split, at switch 1, into every p̄ from 2 to maxPBar: one
// class with maxPBar-1 children at a single switch, each split again by an
// optional pair at switch 2. It has enough flows, and few enough classes,
// for PM to plan over classes whenever the index is usable.
func pbarFanProblem(maxPBar int) *core.Problem {
	numFlows := core.AggMinFlows
	p := &core.Problem{
		NumSwitches:    3,
		NumControllers: 2,
		NumFlows:       numFlows,
		Rest:           []int{numFlows, numFlows / 2},
		Gamma:          []int{numFlows, numFlows, numFlows},
		Delay:          [][]float64{{1, 2}, {2, 1}, {1, 1}},
	}
	for l := 0; l < numFlows; l++ {
		p.Pairs = append(p.Pairs, core.Pair{Switch: 0, Flow: l, PBar: 2})
	}
	for l := 0; l < numFlows; l++ {
		p.Pairs = append(p.Pairs, core.Pair{Switch: 1, Flow: l, PBar: 2 + l%(maxPBar-1)})
	}
	for l := 0; l < numFlows; l += 3 {
		p.Pairs = append(p.Pairs, core.Pair{Switch: 2, Flow: l, PBar: 3})
	}
	return p
}

// checkAtBound finalizes a problem built at or just past one of the class
// index's bounds. The index must match the reference and be usable exactly
// at the bound; PM must equal pmFlat, Solution and Report, either way:
// through the aggregated path at the bound, through the unusable sentinel
// past it.
func checkAtBound(t *testing.T, tag string, p *core.Problem, usable bool) {
	t.Helper()
	if err := p.Finalize(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	if err := core.ClassIndexVsReference(p); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if got := core.NumClasses(p) > 0; got != usable {
		t.Fatalf("%s: index usable = %v, want %v", tag, got, usable)
	}
	if usable {
		checkAggEquivalence(t, tag, p)
		return
	}
	pm, err := core.PM(p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.PMFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSolution(t, tag, flat, pm)
	requireSameReport(t, tag, p, flat, pm)
}

// TestClassIndexMatchesReference pins the refined class index against the
// sort-based reference, up to the numbering of the classes, on the adversarial
// random problems (duplicated, unique and empty signatures), on hand-built
// problems at and one past each of the index's bounds — flow-major ones
// Finalize has to reorder first, with a 64-pair flow (the most a class can
// hold) or a 65-pair one, and a class splitting into every p̄ up to
// maxClassPBar, or one past it — and on a 1000-node scale-syn case. Past a
// bound the problem has no index and PM runs its per-flow path.
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
		if it%4 == 0 {
			// Pairless flows: the empty signature is a class like any other.
			p.NumFlows += 3
		}
		if err := p.Finalize(); err != nil {
			t.Fatalf("iter %d: finalize: %v", it, err)
		}
		if err := core.ClassIndexVsReference(p); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
	}

	for _, flow0Pairs := range []int{64, 65} {
		p := flowMajorProblem(rand.New(rand.NewSource(17)), core.AggMinFlows, flow0Pairs)
		checkAtBound(t, fmt.Sprintf("flow-major, %d-pair flow", flow0Pairs), p, flow0Pairs <= 64)
	}
	for _, maxPBar := range []int{core.MaxClassPBar, core.MaxClassPBar + 1} {
		checkAtBound(t, fmt.Sprintf("p̄ fan to %d", maxPBar), pbarFanProblem(maxPBar), maxPBar <= core.MaxClassPBar)
	}

	if testing.Short() {
		return
	}
	inst, err := scaleSynContext(t, 1000, 50, 8).Build([]int{13})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ClassIndexVsReference(inst.Problem); err != nil {
		t.Fatalf("scale-syn %s: %v", inst.Label(), err)
	}
}

// TestAggMatchesFlatRandom is the core equivalence property: on randomized
// problems, and on the hub-switch shape, the class-aggregated PM must produce
// byte-identical Solutions and Reports to the per-flow reference path.
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
		checkAggEquivalence(t, t.Name(), p)
	}
	for seed := int64(0); seed < 3; seed++ {
		p := hubAggProblem(rand.New(rand.NewSource(2000+seed)), 6000)
		if err := p.Finalize(); err != nil {
			t.Fatalf("hub %d: finalize: %v", seed, err)
		}
		p.BudgetMs = p.IdealDelayBudget()
		if got := p.EligiblePairCount(0); got < 5000 {
			t.Fatalf("hub %d: %d pairs at the hub, want >= 5000", seed, got)
		}
		sol := checkAggEquivalence(t, t.Name()+"/hub", p)
		active := 0
		for k, hi := p.SwitchRun(0); k < hi; k++ {
			if sol.Active[k] {
				active++
			}
		}
		if active == 0 || active == p.EligiblePairCount(0) {
			t.Fatalf("hub %d: %d of %d hub pairs active, want capacity to cut the switch mid-way",
				seed, active, p.EligiblePairCount(0))
		}
	}
}

// TestComparatorsBuildNoClassIndex: only PM plans over classes, so PG and
// RetroFlow must leave a problem's cached index alone — on a problem big and
// compressible enough that PM itself does build one.
func TestComparatorsBuildNoClassIndex(t *testing.T) {
	p := hubAggProblem(rand.New(rand.NewSource(3000)), core.AggMinFlows)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	for _, alg := range []struct {
		name string
		run  func(*core.Problem) (*core.Solution, error)
	}{{"PG", core.PG}, {"RetroFlow", core.RetroFlow}} {
		if _, err := alg.run(p); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if core.HasClassIndex(p) {
			t.Fatalf("%s built a class index it does not use", alg.name)
		}
	}
	if _, err := core.PM(p); err != nil {
		t.Fatal(err)
	}
	if !core.HasClassIndex(p) {
		t.Fatalf("PM did not index a %d-flow, %d-class problem", p.NumFlows, core.NumClasses(p))
	}
}

// TestAggBuildsNoFlowIndex: the aggregated PM path reads its flows' pairs
// through the class templates and a walk over Pairs, never through the
// flow → pairs index, so it must leave that index unbuilt; the per-flow
// solvers build it on first use, and a re-Finalize drops it.
func TestAggBuildsNoFlowIndex(t *testing.T) {
	p := hubAggProblem(rand.New(rand.NewSource(3000)), core.AggMinFlows)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	if core.HasFlowIndex(p) {
		t.Fatal("Finalize built the flow → pairs index")
	}
	if _, err := core.PM(p); err != nil {
		t.Fatal(err)
	}
	if !core.HasClassIndex(p) || 2*core.NumClasses(p) > p.NumFlows {
		t.Fatalf("PM did not plan a %d-flow, %d-class problem over classes", p.NumFlows, core.NumClasses(p))
	}
	if core.HasFlowIndex(p) {
		t.Fatal("the aggregated PM path built the flow → pairs index")
	}
	for _, alg := range []struct {
		name string
		run  func(*core.Problem) (*core.Solution, error)
	}{{"pmFlat", core.PMFlat}, {"PG", core.PG}} {
		if _, err := alg.run(p); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if !core.HasFlowIndex(p) {
			t.Fatalf("%s ran without the flow → pairs index", alg.name)
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		if core.HasFlowIndex(p) {
			t.Fatal("a second Finalize kept the flow → pairs index")
		}
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
		dep, err := topo.SyntheticWithOpts(c.n, c.m, c.capacity, topo.SyntheticOpts{})
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
				checkAggEquivalence(t, tag, inst.Problem)
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
