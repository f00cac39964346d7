package scenario

import (
	"reflect"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/israce"
	"pmedic/internal/topo"
)

func contextFixtures(t *testing.T) (*topo.Deployment, *flow.Set) {
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

// TestContextBuildMatchesBuild drives every 2-failure case through one shared
// Context and through the one-shot Build and requires identical instances:
// the cached precomputation must not change a single field of the compiled
// problem.
func TestContextBuildMatchesBuild(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, failed := range Combinations(len(dep.Controllers), 2) {
		fresh, err := Build(dep, flows, failed)
		if err != nil {
			t.Fatalf("Build(%v): %v", failed, err)
		}
		cached, err := ctx.Build(failed)
		if err != nil {
			t.Fatalf("Context.Build(%v): %v", failed, err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Fatalf("case %v: shared-context instance differs from one-shot Build", failed)
		}
	}
}

// TestContextBuildRepeatable requires that compiling the same case twice off
// one Context yields deep-equal instances — the determinism the parallel
// sweep engine relies on.
func TestContextBuildRepeatable(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.Build([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Build([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated Context.Build of the same case diverged")
	}
}

// TestContextBuildValidation checks that the cached path rejects the same
// degenerate failure sets the one-shot path does.
func TestContextBuildValidation(t *testing.T) {
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := len(dep.Controllers)
	all := make([]int, m)
	for j := range all {
		all[j] = j
	}
	for _, failed := range [][]int{nil, {}, {-1}, {m}, {0, 0}, all} {
		if _, err := ctx.Build(failed); err == nil {
			t.Fatalf("Context.Build(%v) accepted an invalid case", failed)
		}
	}
}

// TestSortPairsBySwitch checks the counting sort against the comparison sort
// it replaces on a synthetic flow-major pair list.
func TestSortPairsBySwitch(t *testing.T) {
	pairs := []core.Pair{
		{Switch: 2, Flow: 0, PBar: 2},
		{Switch: 0, Flow: 0, PBar: 3},
		{Switch: 1, Flow: 1, PBar: 2},
		{Switch: 0, Flow: 2, PBar: 4},
		{Switch: 2, Flow: 2, PBar: 2},
		{Switch: 1, Flow: 3, PBar: 5},
	}
	got := sortPairsBySwitch(pairs, 3, new([]int))
	want := []core.Pair{
		{Switch: 0, Flow: 0, PBar: 3},
		{Switch: 0, Flow: 2, PBar: 4},
		{Switch: 1, Flow: 1, PBar: 2},
		{Switch: 1, Flow: 3, PBar: 5},
		{Switch: 2, Flow: 0, PBar: 2},
		{Switch: 2, Flow: 2, PBar: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortPairsBySwitch = %v, want %v", got, want)
	}
}

// TestContextBuildAllocs bounds the allocations of a warm case compile — the
// per-case cost every sweep pays — on the paper's headline case. The pooled
// scratch brought it from 515 to 29; the bound leaves three of headroom for
// toolchain drift and none for a lost pool.
func TestContextBuildAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	dep, flows := contextFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	failed := []int{3, 4}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ctx.Build(failed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("warm Context.Build(%v) = %.0f allocs/op, want <= 32", failed, allocs)
	}
}
