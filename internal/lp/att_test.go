package lp_test

import (
	"errors"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/lp"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// TestRefactorizeMatchesReferenceATT runs the benchmark's optimal-att round —
// the four ATT cases, 64 nodes each, PM warm start — and compares every basis
// its simplexes refactorize with the dense-scan reference: the same eta file
// bit for bit is what keeps those trees, and the workload's golden digest,
// where they were.
func TestRefactorizeMatchesReferenceATT(t *testing.T) {
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
	compared, singular := lp.CheckRefactorizations(t)
	for _, set := range [][]int{{4}, {3, 4}, {2, 3, 4}, {0, 1}} {
		inst, err := ctx.Build(set)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := core.PM(inst.Problem)
		if err != nil {
			t.Fatal(err)
		}
		_, err = opt.Solve(inst.Problem, opt.Options{TimeLimit: time.Hour, MaxNodes: 64, Warm: warm})
		if err != nil && !errors.Is(err, opt.ErrNoSolution) {
			t.Fatalf("case %v: %v", set, err)
		}
	}
	t.Logf("%d refactorizations compared, %d singular on both sides", *compared, *singular)
	if *compared < 200 {
		t.Fatalf("%d refactorizations compared: the hook did not see the round's bases", *compared)
	}
}
