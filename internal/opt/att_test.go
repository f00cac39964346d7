package opt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/mip"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// attTree is one node-budgeted search of an ATT failure case, PM warm start.
type attTree struct {
	set       []int
	status    mip.Status
	nodes     int
	objective float64 // 0 without an incumbent
	bound     float64
	// certified and cold count node relaxations that ended on the dead-end
	// certificate and that ran the two-phase start (the root, plus every dead
	// end the certificate did not cover); -1 = not pinned.
	certified, cold int
}

// The trees of benchmark workload optimal-att (64 nodes) and of the same
// cases at 256: status, nodes, objective and bound as `mip.Solve` returned
// them at PR 21 (commit 735f817), before the LP kernel changed underneath.
// The search is deterministic under a node budget, so a different number
// here is a different tree. certified/cold are this kernel's own: of the 28
// dual-simplex dead ends in a 64-node round, 26 end on the certificate.
var attTrees = map[int][]attTree{
	64: {
		{[]int{4}, mip.StatusOptimal, 1, 2.4029999999999996, 2.4029999999999996, 0, 1},
		{[]int{3, 4}, mip.StatusFeasible, 64, 4.0909999999999886, 4.2196666666666323, 25, 3},
		{[]int{2, 3, 4}, mip.StatusUnknown, 64, 0, 3.9436865079364458, 0, 1},
		{[]int{0, 1}, mip.StatusFeasible, 64, 5.6169999999999609, 5.783949747917446, 1, 1},
	},
	256: {
		{[]int{4}, mip.StatusOptimal, 1, 2.4029999999999996, 2.4029999999999996, -1, -1},
		{[]int{3, 4}, mip.StatusFeasible, 256, 4.0909999999999886, 4.2183333333332991, -1, -1},
		{[]int{2, 3, 4}, mip.StatusUnknown, 256, 0, 3.9436865079364458, -1, -1},
		{[]int{0, 1}, mip.StatusFeasible, 256, 5.723999999999962, 5.7435395954550454, -1, -1},
	},
}

func TestATTTreesPinned(t *testing.T) {
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, budget := range []int{64, 256} {
		if budget > 64 && testing.Short() {
			continue
		}
		for _, want := range attTrees[budget] {
			inst, err := ctx.Build(want.set)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := core.PM(inst.Problem)
			if err != nil {
				t.Fatal(err)
			}
			// The frontier's relaxations are solved in parallel; the tree,
			// its incumbent and its LP work may not depend on it.
			var first string
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				at := fmt.Sprintf("%d nodes, case %v, GOMAXPROCS %d", budget, want.set, procs)
				res, err := Search(inst.Problem, Options{TimeLimit: time.Hour, MaxNodes: budget, Warm: warm})
				if want.status == mip.StatusUnknown {
					if !errors.Is(err, ErrNoSolution) || res == nil {
						t.Fatalf("%s: error %v, want ErrNoSolution beside a result", at, err)
					}
				} else if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if res.Status != want.status || res.Nodes != want.nodes || res.Proved() != (want.status == mip.StatusOptimal) {
					t.Errorf("%s: %v after %d nodes, want %v after %d", at, res.Status, res.Nodes, want.status, want.nodes)
				}
				if math.Abs(res.Objective-want.objective) > 1e-9 || math.Abs(res.Bound-want.bound) > 1e-9 {
					t.Errorf("%s: objective %.17g bound %.17g, want %.17g and %.17g", at, res.Objective, res.Bound, want.objective, want.bound)
				}
				if (res.Solution == nil) != (want.objective == 0) {
					t.Errorf("%s: solution %v beside objective %v", at, res.Solution, res.Objective)
				}
				if want.certified >= 0 && (res.LP.Certified != want.certified || res.LP.Cold != want.cold) {
					t.Errorf("%s: %d relaxations certified infeasible and %d cold starts, want %d and %d (%+v)",
						at, res.LP.Certified, res.LP.Cold, want.certified, want.cold, res.LP)
				}
				if w := res.LP; w.Cold+w.Warm+w.Repaired+w.Certified < res.Nodes || w.Iters == 0 || w.Refactors < res.Nodes {
					t.Errorf("%s: LP work %+v does not cover %d nodes", at, w, res.Nodes)
				}
				if tree := treeString(res.Result); first == "" {
					first = tree
				} else if tree != first {
					t.Errorf("%s: result\n%s\ndiffers from GOMAXPROCS 1's\n%s", at, tree, first)
				}
			}
		}
	}
}

// treeString prints a search result, Runtime aside, with every float64 in
// its shortest round-trip form: two results print alike only if their
// status, node count, objective, bound, gap, X and LP work are the same bits.
func treeString(r *mip.Result) string {
	cp := *r
	cp.Runtime = 0
	return fmt.Sprintf("%+v", cp)
}

// TestIncompleteSearchIsNotProved: an incumbent beside unexplored nodes —
// whether a budget left them open or branch & bound dropped a node whose
// relaxation hit the LP iteration limit, mip reports both as feasible — is
// returned, and Result.Proved says it is not a proof; a search that ends
// without an incumbent is ErrNoSolution.
func TestIncompleteSearchIsNotProved(t *testing.T) {
	incomplete := &mip.Result{Status: mip.StatusFeasible, Objective: 4, Bound: math.Inf(1), Gap: math.Inf(1), Nodes: 1}
	if err := refusal(incomplete); err != nil {
		t.Fatalf("an unproved incumbent is refused: %v", err)
	}
	if (&Result{Result: incomplete}).Proved() {
		t.Fatal("an unproved incumbent reads as proved")
	}
	optimal := &mip.Result{Status: mip.StatusOptimal}
	if err := refusal(optimal); err != nil || !(&Result{Result: optimal}).Proved() {
		t.Fatalf("a proved optimum: err %v, proved %v", err, (&Result{Result: optimal}).Proved())
	}
	for _, st := range []mip.Status{mip.StatusUnknown, mip.StatusInfeasible, mip.StatusUnbounded} {
		if err := refusal(&mip.Result{Status: st}); !errors.Is(err, ErrNoSolution) {
			t.Fatalf("status %v: err %v, want ErrNoSolution", st, err)
		}
	}
}
