// Package scenario turns a topology deployment, a workload, and a set of
// failed controllers into an FMSSM optimization instance (core.Problem),
// keeping the bookkeeping needed to map solver indices back to switches,
// flows, and controllers. It also models the middle-layer control path used
// to account ProgrammabilityGuardian's communication overhead.
package scenario

import (
	"errors"
	"strconv"
	"strings"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// FlowVisorProcessingMs is the middle layer's per-request processing delay.
// The paper cites the FlowVisor measurement of 0.48 ms on average to pull
// port status and charges it to PG's control path.
const FlowVisorProcessingMs = 0.48

// Instance is one failure case compiled to an optimization problem, together
// with the index mappings back to the deployment.
type Instance struct {
	Problem *core.Problem
	Dep     *topo.Deployment
	Flows   *flow.Set

	// Failed and Active are controller indices into Dep.Controllers; Active
	// order defines the Problem's controller indexing.
	Failed []int
	Active []int
	// Switches lists the offline switches; its order defines the Problem's
	// switch indexing.
	Switches []topo.NodeID
	// FlowIDs lists the recoverable offline flows, ascending; its order
	// defines the Problem's flow indexing.
	FlowIDs []flow.ID
	// Unrecoverable lists, ascending, the offline flows with no eligible
	// (β=1) pair at any offline switch: no algorithm can restore their
	// programmability, so they are excluded from the optimization (see
	// DESIGN.md §8). It and FlowIDs are disjoint, so a merge of the two
	// lists gives every offline flow in ID order without sorting.
	Unrecoverable []flow.ID

	// MiddleSite is the node hosting the FlowVisor-style middle layer and
	// MiddleDelay[i][j] the control delay from offline switch i to active
	// controller j through it (propagation via the layer + processing).
	MiddleSite  topo.NodeID
	MiddleDelay [][]float64
}

// ErrBadCase reports an invalid failure specification.
var ErrBadCase = errors.New("scenario: invalid failure case")

// Build compiles the failure of the given controllers (indices into
// dep.Controllers) into an Instance. At least one controller must fail and
// at least one must survive.
//
// Build constructs a throwaway Context per call; callers compiling more than
// one failure case over the same deployment and workload (sweeps, the online
// daemon) should build one Context with NewContext and use Context.Build,
// which skips the shared precomputation.
func Build(dep *topo.Deployment, flows *flow.Set, failed []int) (*Instance, error) {
	ctx, err := NewContext(dep, flows)
	if err != nil {
		return nil, err
	}
	return ctx.Build(failed)
}

// Evaluate runs core.Evaluate with this instance's middle-layer delay model.
func (inst *Instance) Evaluate(s *core.Solution) (*core.Report, error) {
	return core.Evaluate(inst.Problem, s, core.EvaluateOptions{MiddleDelay: inst.MiddleDelay})
}

// OfflineFlowCount returns the number of offline flows including the
// unrecoverable ones (the denominator of recovery percentages that want to
// account for them).
func (inst *Instance) OfflineFlowCount() int {
	return len(inst.FlowIDs) + len(inst.Unrecoverable)
}

// Label renders the failure case the way the paper does, as the failed
// controllers' site IDs: "(13, 20)".
func (inst *Instance) Label() string {
	parts := make([]string, len(inst.Failed))
	for i, j := range inst.Failed {
		parts[i] = strconv.Itoa(int(inst.Dep.Controllers[j].Site))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Combinations returns all k-subsets of {0..m-1} in lexicographic order;
// used to enumerate the paper's 6 single-, 15 double-, and 20 triple-failure
// cases.
func Combinations(m, k int) [][]int {
	if k < 0 || k > m {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == m-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// CombinationsUpTo returns every failure combination of size 1..k over m
// controllers, smaller sizes first and lexicographic within a size — the
// enumeration order the plan-store compiler sweeps and indexes. k is capped
// at m-1: a case needs at least one surviving controller.
func CombinationsUpTo(m, k int) [][]int {
	if k > m-1 {
		k = m - 1
	}
	var out [][]int
	for s := 1; s <= k; s++ {
		out = append(out, Combinations(m, s)...)
	}
	return out
}
