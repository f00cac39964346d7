package scenario

import (
	"errors"
	"math"
	"testing"

	"pmedic/internal/flow"
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

func TestBuildValidation(t *testing.T) {
	dep, flows := fixtures(t)
	cases := [][]int{
		nil,
		{},
		{0, 1, 2, 3, 4, 5},
		{-1},
		{9},
		{0, 0},
	}
	for _, failed := range cases {
		if _, err := Build(dep, flows, failed); !errors.Is(err, ErrBadCase) {
			t.Fatalf("failed=%v: error = %v, want ErrBadCase", failed, err)
		}
	}
}

func TestBuildSingleFailure(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{3}) // C4, the hub domain
	if err != nil {
		t.Fatal(err)
	}
	p := inst.Problem
	if p.NumSwitches != len(dep.Controllers[3].Domain) {
		t.Fatalf("offline switches = %d, want %d", p.NumSwitches, len(dep.Controllers[3].Domain))
	}
	if p.NumControllers != 5 || len(inst.Active) != 5 {
		t.Fatalf("active controllers = %d, want 5", p.NumControllers)
	}
	// Residuals must match capacity minus own-domain load.
	for jj, j := range inst.Active {
		load := 0
		for _, sw := range dep.Controllers[j].Domain {
			load += flows.SwitchFlowCount(sw)
		}
		if want := dep.Controllers[j].Capacity - load; p.Rest[jj] != want {
			t.Fatalf("Rest[%d] = %d, want %d", jj, p.Rest[jj], want)
		}
	}
	// Gammas must match the workload counts.
	for i, sw := range inst.Switches {
		if p.Gamma[i] != flows.SwitchFlowCount(sw) {
			t.Fatalf("Gamma[%d] = %d, want %d", i, p.Gamma[i], flows.SwitchFlowCount(sw))
		}
	}
	if p.BudgetMs <= 0 || math.Abs(p.BudgetMs-p.IdealDelayBudget()) > 1e-9 {
		t.Fatalf("BudgetMs = %v", p.BudgetMs)
	}
}

func TestBuildOfflineFlowsExactlyThoseTraversingOfflineSwitches(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	offline := map[topo.NodeID]bool{}
	for _, sw := range inst.Switches {
		offline[sw] = true
	}
	want := 0
	for _, f := range flows.Flows {
		for _, v := range f.Path {
			if offline[v] {
				want++
				break
			}
		}
	}
	if got := inst.OfflineFlowCount(); got != want {
		t.Fatalf("offline flows = %d, want %d", got, want)
	}
	// Every problem flow must have at least one eligible pair.
	for l := 0; l < inst.Problem.NumFlows; l++ {
		if len(inst.Problem.PairsOfFlow(l)) == 0 {
			t.Fatalf("flow index %d has no pairs", l)
		}
	}
}

func TestBuildUnrecoverableFlows(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{4}) // Florida domain {9, 16}
	if err != nil {
		t.Fatal(err)
	}
	offline := map[topo.NodeID]bool{}
	for _, sw := range inst.Switches {
		offline[sw] = true
	}
	pBar := pBarOracle(dep.Graph, flows.Options())
	for _, id := range inst.Unrecoverable {
		f := &flows.Flows[id]
		for _, v := range f.Path[:len(f.Path)-1] {
			if offline[v] && pBar(v, f.Dst) > 0 {
				t.Fatalf("flow %d marked unrecoverable but has an eligible pair at %d", id, v)
			}
		}
	}
}

func TestBuildDelayMatrixIsShortestPathDelay(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	p := inst.Problem
	for i := range inst.Switches {
		for jj := range inst.Active {
			if p.Delay[i][jj] < 0 {
				t.Fatalf("negative delay at [%d][%d]", i, jj)
			}
		}
	}
	// A switch co-located with an active controller would have delay 0; the
	// hub domain's switches are not, so all delays are positive.
	for i := range inst.Switches {
		for jj := range inst.Active {
			if p.Delay[i][jj] == 0 {
				t.Fatalf("unexpected zero delay: switch %d controller %d", i, jj)
			}
		}
	}
}

func TestMiddleLayerDelays(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if inst.MiddleSite < 0 || int(inst.MiddleSite) >= dep.Graph.NumNodes() {
		t.Fatalf("middle site %d out of range", inst.MiddleSite)
	}
	for i := range inst.Switches {
		for jj := range inst.Active {
			md := inst.MiddleDelay[i][jj]
			if md < FlowVisorProcessingMs {
				t.Fatalf("middle delay %v below processing floor", md)
			}
			// The detour through the layer can never beat the direct
			// shortest path.
			if md+1e-9 < inst.Problem.Delay[i][jj] {
				t.Fatalf("middle-layer delay %v beats direct %v", md, inst.Problem.Delay[i][jj])
			}
		}
	}
}

func TestLabel(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Label() != "(13, 16)" {
		t.Fatalf("label = %q, want (13, 16)", inst.Label())
	}
}

func TestCombinations(t *testing.T) {
	if got := len(Combinations(6, 1)); got != 6 {
		t.Fatalf("C(6,1) = %d", got)
	}
	if got := len(Combinations(6, 2)); got != 15 {
		t.Fatalf("C(6,2) = %d", got)
	}
	if got := len(Combinations(6, 3)); got != 20 {
		t.Fatalf("C(6,3) = %d", got)
	}
	if Combinations(3, 0) == nil || len(Combinations(3, 0)) != 1 {
		t.Fatal("C(3,0) should be the single empty set")
	}
	if Combinations(2, 3) != nil {
		t.Fatal("C(2,3) should be nil")
	}
	// Lexicographic order and validity.
	combos := Combinations(5, 3)
	for i, c := range combos {
		for k := 1; k < len(c); k++ {
			if c[k] <= c[k-1] {
				t.Fatalf("combo %v not strictly increasing", c)
			}
		}
		if i > 0 && !lexLess(combos[i-1], c) {
			t.Fatalf("combos out of order: %v then %v", combos[i-1], c)
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestEvaluateIntegration(t *testing.T) {
	dep, flows := fixtures(t)
	inst, err := Build(dep, flows, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// The headline mechanism: the hub switch's γ exceeds every active
	// controller's residual capacity.
	hubIdx := -1
	for i, sw := range inst.Switches {
		if sw == 13 {
			hubIdx = i
		}
	}
	if hubIdx < 0 {
		t.Fatal("hub switch 13 not offline in case (13, 16)")
	}
	for jj, rest := range inst.Problem.Rest {
		if rest >= inst.Problem.Gamma[hubIdx] {
			t.Fatalf("controller %d residual %d can absorb the hub (γ=%d); headline case broken",
				jj, rest, inst.Problem.Gamma[hubIdx])
		}
	}
}
