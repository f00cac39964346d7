package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// randomStart builds a feasible per-flow solution PM would never produce: a
// random three quarters of the switches mapped to random controllers, and a
// random half of their pairs activated while capacity lasts.
func randomStart(p *core.Problem, rng *rand.Rand) *core.Solution {
	s := core.NewSolution("random", p)
	for i := range s.SwitchController {
		if rng.Intn(4) > 0 {
			s.SwitchController[i] = rng.Intn(p.NumControllers)
		}
	}
	rest := append([]int(nil), p.Rest...)
	for k, pr := range p.Pairs {
		if j := s.SwitchController[pr.Switch]; j >= 0 && rest[j] > 0 && rng.Intn(2) == 0 {
			s.Active[k] = true
			rest[j]--
		}
	}
	return s
}

// checkRefine pins refine to its full-scan reference on p: PM's final pass,
// and Improve from a degraded PM solution and from a random start at several
// round budgets.
func checkRefine(t *testing.T, tag string, p *core.Problem, rng *rand.Rand) {
	t.Helper()
	if err := core.PMRefineVsReference(p); err != nil {
		t.Fatalf("%s: PM: %v", tag, err)
	}
	pm, err := core.PMFlat(p)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for _, rounds := range []int{1, 2, 64} {
		for name, start := range map[string]*core.Solution{
			"degraded PM": degrade(p, pm),
			"random":      randomStart(p, rng),
		} {
			if err := core.ImproveVsReference(p, start, rounds); err != nil {
				t.Fatalf("%s: Improve from a %s start, %d rounds: %v", tag, name, rounds, err)
			}
		}
	}
}

// TestRefineMatchesReference pins PM's incremental final pass, and Improve,
// to the full-scan reference — the same Solution, residual capacity and
// round count — on every referenceCases problem.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	referenceCases(t, func(_, tag string, p *core.Problem) {
		checkRefine(t, tag, p, rng)
	})
}

// TestBalanceMatchesReference pins PM's balancing loop, which stops at its
// first sweep that activates no pair and skips the floor scan at a dry
// controller, to the reference that runs every sweep and scans every switch:
// the same Solution and residual capacity on every referenceCases problem.
// The exit has to be exercised: some ATT case and some synthetic case must
// skip at least two sweeps.
func TestBalanceMatchesReference(t *testing.T) {
	skipped := map[string]int{}
	referenceCases(t, func(kind, tag string, p *core.Problem) {
		noOps, err := core.BalanceVsReference(p)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		skipped[kind] = max(skipped[kind], noOps)
	})
	t.Logf("most no-op sweeps skipped in one case: %v", skipped)
	for _, kind := range []string{"ATT", "synthetic"} {
		if skipped[kind] < 2 {
			t.Errorf("no %s case skips two or more sweeps (most: %d)", kind, skipped[kind])
		}
	}
}

// referenceCases calls fn, in a fixed order, on the problems the
// reference-identity tests share: every ATT failure case at depths 1–5 (all
// six down is no case), seeded synthetic contexts from scarce to ample
// capacity at depths 1–2, and the randomized problems of the aggregated ≡
// per-flow property test. kind names the family: ATT, synthetic or random.
func referenceCases(t *testing.T, fn func(kind, tag string, p *core.Problem)) {
	t.Helper()
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
	for depth := 1; depth <= 5; depth++ {
		for _, failed := range scenario.Combinations(len(dep.Controllers), depth) {
			inst, err := ctx.Build(failed)
			if err != nil {
				t.Fatalf("ATT %v: %v", failed, err)
			}
			fn("ATT", "ATT "+inst.Label(), inst.Problem)
		}
	}

	for _, c := range []struct {
		n, m int
		seed uint64
	}{{30, 4, 1}, {40, 5, 2}, {48, 5, 3}} {
		opts := topo.SyntheticOpts{Seed: c.seed}
		dep, err := topo.SyntheticWithOpts(c.n, c.m, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxLoad := 0
		for _, ctl := range dep.Controllers {
			load := 0
			for _, sw := range ctl.Domain {
				load += flows.SwitchFlowCount(sw)
			}
			maxLoad = max(maxLoad, load)
		}
		// Capacity as a percentage of the heaviest controller domain's load:
		// from none to spare on that controller to plenty everywhere.
		for _, pct := range []int{100, 115, 150, 250} {
			dep, err := topo.SyntheticWithOpts(c.n, c.m, maxLoad*pct/100, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := scenario.NewContext(dep, flows)
			if err != nil {
				t.Fatal(err)
			}
			tested := 0
			for depth := 1; depth <= 2; depth++ {
				for _, failed := range scenario.Combinations(c.m, depth) {
					inst, err := ctx.Build(failed)
					if err != nil {
						continue // infeasible case (e.g. overload) — not under test
					}
					tested++
					fn("synthetic", fmt.Sprintf("synthetic %d/%d seed %d at %d%% %s", c.n, c.m, c.seed, pct, inst.Label()), inst.Problem)
				}
			}
			if tested == 0 {
				t.Fatalf("synthetic %d/%d seed %d at %d%%: no feasible failure case", c.n, c.m, c.seed, pct)
			}
		}
	}

	for it := 0; it < 120; it++ {
		p := randAggProblem(rand.New(rand.NewSource(int64(1000 + it))))
		if err := p.Finalize(); err != nil {
			t.Fatalf("random %d: finalize: %v", it, err)
		}
		fn("random", fmt.Sprintf("random %d", it), p)
	}
}
