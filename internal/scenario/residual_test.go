package scenario

import (
	"math/rand"
	"reflect"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// translate lifts a residual-problem solution back into the original
// problem's pair index space — the same positional translation SolveResidual
// performs.
func translate(inst *Instance, rsol *core.Solution, pairMap []int) *core.Solution {
	sol := core.NewSolution(rsol.Algorithm, inst.Problem)
	copy(sol.SwitchController, rsol.SwitchController)
	for k, on := range rsol.Active {
		if on {
			sol.Active[pairMap[k]] = true
		}
	}
	return sol
}

// TestResidualRoundTripProperty checks, over seeded random demoted subsets
// of several failure cases, that Residual preserves everything it promises:
// the index spaces survive the round trip, exactly the demoted switches'
// pairs are dropped, and a solution of the residual problem translates back
// into a feasible solution of the original problem with identical
// programmability metrics.
func TestResidualRoundTripProperty(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))

	for _, failed := range [][]int{{3}, {3, 4}, {1, 4}, {0, 5}} {
		inst, err := Build(dep, flows, failed)
		if err != nil {
			t.Fatal(err)
		}
		p := inst.Problem
		for trial := 0; trial < 8; trial++ {
			// A random demoted subset; trial 0 is the empty set (identity).
			demoted := make(map[topo.NodeID]bool)
			if trial > 0 {
				want := rng.Intn(len(inst.Switches)) + 1
				for _, i := range rng.Perm(len(inst.Switches))[:want] {
					demoted[inst.Switches[i]] = true
				}
			}

			rp, pairMap, err := inst.Residual(demoted)
			if err != nil {
				t.Fatalf("%v demoted=%v: %v", failed, demoted, err)
			}

			// Index spaces are preserved.
			if rp.NumSwitches != p.NumSwitches || rp.NumControllers != p.NumControllers || rp.NumFlows != p.NumFlows {
				t.Fatalf("%v demoted=%v: residual reshaped the index spaces", failed, demoted)
			}
			if len(pairMap) != len(rp.Pairs) {
				t.Fatalf("%v demoted=%v: pairMap len %d != %d pairs", failed, demoted, len(pairMap), len(rp.Pairs))
			}

			// pairMap is strictly increasing and maps pairs verbatim; the
			// kept set is exactly the pairs away from demoted switches.
			kept := make(map[int]bool, len(pairMap))
			for k, orig := range pairMap {
				if k > 0 && pairMap[k-1] >= orig {
					t.Fatalf("%v demoted=%v: pairMap not strictly increasing at %d", failed, demoted, k)
				}
				if rp.Pairs[k] != p.Pairs[orig] {
					t.Fatalf("%v demoted=%v: pair %d not mapped verbatim", failed, demoted, k)
				}
				kept[orig] = true
			}
			for k, pr := range p.Pairs {
				isDemoted := demoted[inst.Switches[pr.Switch]]
				if kept[k] == isDemoted {
					t.Fatalf("%v demoted=%v: pair %d at switch %d kept=%v, demoted switch=%v",
						failed, demoted, k, inst.Switches[pr.Switch], kept[k], isDemoted)
				}
			}
			for i, sw := range inst.Switches {
				wantGamma := p.Gamma[i]
				if demoted[sw] {
					wantGamma = 0
				}
				if rp.Gamma[i] != wantGamma {
					t.Fatalf("%v demoted=%v: switch %d gamma %d, want %d", failed, demoted, sw, rp.Gamma[i], wantGamma)
				}
			}
			if trial == 0 && len(rp.Pairs) != len(p.Pairs) {
				t.Fatalf("%v: empty demotion dropped pairs", failed)
			}

			// Round trip: solve the residual, translate back, and the
			// original problem must accept the solution with the exact same
			// programmability.
			rsol, err := core.PM(rp)
			if err != nil {
				t.Fatalf("%v demoted=%v: solve residual: %v", failed, demoted, err)
			}
			sol := translate(inst, rsol, pairMap)
			if err := sol.Verify(p); err != nil {
				t.Fatalf("%v demoted=%v: translated solution infeasible: %v", failed, demoted, err)
			}
			rrep, err := core.Evaluate(rp, rsol, core.EvaluateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Evaluate(p, sol, core.EvaluateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.MinProg != rrep.MinProg || rep.TotalProg != rrep.TotalProg || rep.RecoveredFlows != rrep.RecoveredFlows {
				t.Fatalf("%v demoted=%v: metrics drifted in translation: residual (r=%d total=%d rec=%d), original (r=%d total=%d rec=%d)",
					failed, demoted, rrep.MinProg, rrep.TotalProg, rrep.RecoveredFlows,
					rep.MinProg, rep.TotalProg, rep.RecoveredFlows)
			}
			for l := range rep.FlowProg {
				if rep.FlowProg[l] != rrep.FlowProg[l] {
					t.Fatalf("%v demoted=%v: flow %d programmability drifted: %d != %d",
						failed, demoted, l, rep.FlowProg[l], rrep.FlowProg[l])
				}
			}
			// Nothing may be recovered at a demoted switch.
			for k, on := range sol.Active {
				if on && demoted[inst.Switches[p.Pairs[k].Switch]] {
					t.Fatalf("%v demoted=%v: active pair %d at a demoted switch", failed, demoted, k)
				}
			}
		}
	}
}

// TestSolveResidual pins the re-plan's contract per solver family: a
// switch-mapping solver's plan is its residual solve translated back, and a
// flow-mapping solver (PG) is refused with an error instead of coming back as
// a plan with active pairs at unmapped switches.
func TestSolveResidual(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(dep, flows, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	demoted := map[topo.NodeID]bool{inst.Switches[0]: true, inst.Switches[2]: true}

	got, err := inst.SolveResidual(demoted, core.PM)
	if err != nil {
		t.Fatal(err)
	}
	rp, pairMap, err := inst.Residual(demoted)
	if err != nil {
		t.Fatal(err)
	}
	rsol, err := core.PM(rp)
	if err != nil {
		t.Fatal(err)
	}
	want := translate(inst, rsol, pairMap)
	if got.Algorithm != "PM+residual" || !reflect.DeepEqual(got.SwitchController, want.SwitchController) ||
		!reflect.DeepEqual(got.Active, want.Active) || got.PairController != nil {
		t.Fatalf("PM re-plan %q differs from the translated residual solve", got.Algorithm)
	}
	if err := got.Verify(inst.Problem); err != nil {
		t.Fatalf("PM re-plan infeasible: %v", err)
	}

	if sol, err := inst.SolveResidual(demoted, core.PG); err == nil {
		t.Fatalf("PG re-plan accepted (Verify says %v)", sol.Verify(inst.Problem))
	}
}

// TestResidualReplanFreesCapacity: demoting one switch drops exactly its
// pairs, keeps the rest in pairMap order, and the re-plan comes back in the
// original problem's index spaces with the demoted switch unmapped.
func TestResidualReplanFreesCapacity(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	demoted := map[topo.NodeID]bool{inst.Switches[0]: true}
	rp, pairMap, err := inst.Residual(demoted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Pairs) >= len(inst.Problem.Pairs) {
		t.Fatalf("residual kept %d of %d pairs", len(rp.Pairs), len(inst.Problem.Pairs))
	}
	for k, orig := range pairMap {
		if rp.Pairs[k] != inst.Problem.Pairs[orig] {
			t.Fatalf("pairMap[%d]=%d mismatches", k, orig)
		}
		if inst.Switches[rp.Pairs[k].Switch] == inst.Switches[0] {
			t.Fatalf("residual pair %d still at the demoted switch", k)
		}
	}
	next, err := inst.SolveResidual(demoted, core.PM)
	if err != nil {
		t.Fatal(err)
	}
	if next.SwitchController[0] != -1 {
		t.Fatalf("PM mapped the demoted switch to %d", next.SwitchController[0])
	}
	if len(next.Active) != len(inst.Problem.Pairs) {
		t.Fatalf("re-plan has %d activation slots, parent has %d pairs", len(next.Active), len(inst.Problem.Pairs))
	}
	if _, err := inst.Evaluate(next); err != nil {
		t.Fatal(err)
	}
}
