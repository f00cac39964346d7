package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/graphalg"
	"pmedic/internal/topo"
)

// Context is everything about a (Deployment, Set) pair that does not depend
// on which controllers failed: shortest-path delay vectors from every node,
// the FlowVisor-style middle-layer placement, and the pre-failure load of
// every controller domain. Building a Context costs one Dijkstra per node;
// compiling a failure case against it (Context.Build) is then pure slicing
// and indexing over the cached state, which is what makes sweeps over all
// C(m, k) cases and the daemon's per-event re-planning cheap.
//
// A Context is immutable after NewContext and safe for concurrent use by any
// number of goroutines; the parallel sweep engine (internal/eval) shares one
// Context across all of its workers.
type Context struct {
	Dep   *topo.Deployment
	Flows *flow.Set

	// dist[v] is the shortest-path control delay (ms) from node v to every
	// node, under the deployment's great-circle edge delays.
	dist [][]float64
	// middleSite is the delay-centroid node hosting the middle layer.
	middleSite topo.NodeID
	// domainLoad[j] is controller j's pre-failure load: Σ γ over its domain.
	domainLoad []int
}

// NewContext precomputes the failure-independent state for the deployment
// and workload. The result is immutable and concurrency-safe.
func NewContext(dep *topo.Deployment, flows *flow.Set) (*Context, error) {
	g := dep.Graph
	delayW, err := g.EdgeDelaysMs()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	n := g.NumNodes()
	ctx := &Context{Dep: dep, Flows: flows}

	ctx.dist = make([][]float64, n)
	for v := 0; v < n; v++ {
		tree, err := graphalg.Dijkstra(g, topo.NodeID(v), delayW)
		if err != nil {
			return nil, fmt.Errorf("scenario: delays from %d: %w", v, err)
		}
		ctx.dist[v] = tree.Dist
	}

	// Middle layer: the delay-centroid node (minimum summed shortest-path
	// delay to all nodes, lowest ID on ties).
	best, bestSum := topo.NodeID(-1), math.Inf(1)
	for v := 0; v < n; v++ {
		sum := 0.0
		for _, d := range ctx.dist[v] {
			sum += d
		}
		if sum < bestSum {
			best, bestSum = topo.NodeID(v), sum
		}
	}
	ctx.middleSite = best

	ctx.domainLoad = make([]int, len(dep.Controllers))
	for j, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		ctx.domainLoad[j] = load
	}
	return ctx, nil
}

// MiddleSite returns the node hosting the FlowVisor-style middle layer; the
// placement depends only on the topology, not on the failure case.
func (ctx *Context) MiddleSite() topo.NodeID { return ctx.middleSite }

// DelayMs returns the shortest-path control delay from a to b in ms.
func (ctx *Context) DelayMs(a, b topo.NodeID) float64 { return ctx.dist[a][b] }

// buildScratch holds Context.Build's per-case working memory. Instances are
// recycled through buildPool: the Context is shared by concurrent sweep
// workers, so the scratch cannot live on the Context itself, and the pool
// keeps each worker's steady-state case compilation free of the per-case
// slice/map churn that used to dominate sweep allocation profiles.
type buildScratch struct {
	isFailed    []bool
	switchIndex []int
	// offFlows is the case's candidate flows; seen is the one-bit-per-flow
	// set flow.Set.FlowsThrough marks them in (all zero between calls).
	offFlows []int32
	seen     []uint64
	pairs    []core.Pair
	start    []int
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Build compiles the failure of the given controllers (indices into
// Dep.Controllers) into an Instance, reusing the Context's cached state. It
// produces exactly the Instance that scenario.Build would, case for case and
// byte for byte; only the shared precomputation is skipped.
//
// Candidate flows are enumerated through the workload's switch→flows CSR
// index — cost proportional to the traffic actually crossing the failed
// domains — instead of scanning all L flows per case, which is what makes a
// sweep case at 10⁶ all-pairs flows affordable.
func (ctx *Context) Build(failed []int) (*Instance, error) {
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	return ctx.build(sc, failed)
}

// build is Build on the caller's scratch, which may come from any earlier
// build — of another Context, or one that returned an error.
func (ctx *Context) build(sc *buildScratch, failed []int) (*Instance, error) {
	dep, flows := ctx.Dep, ctx.Flows
	m := len(dep.Controllers)
	if len(failed) == 0 {
		return nil, fmt.Errorf("%w: no failed controllers", ErrBadCase)
	}
	if len(failed) >= m {
		return nil, fmt.Errorf("%w: all %d controllers failed", ErrBadCase, m)
	}
	isFailed := growBools(&sc.isFailed, m)
	for _, j := range failed {
		if j < 0 || j >= m {
			return nil, fmt.Errorf("%w: controller index %d out of range [0,%d)", ErrBadCase, j, m)
		}
		if isFailed[j] {
			return nil, fmt.Errorf("%w: controller %d listed twice", ErrBadCase, j)
		}
		isFailed[j] = true
	}

	inst := &Instance{Dep: dep, Flows: flows}
	inst.Failed = make([]int, 0, len(failed))
	inst.Failed = append(inst.Failed, failed...)
	sort.Ints(inst.Failed)
	inst.Active = make([]int, 0, m-len(failed))
	for j := 0; j < m; j++ {
		if !isFailed[j] {
			inst.Active = append(inst.Active, j)
		}
	}

	// Offline switches: the failed controllers' domains, ascending.
	numOffline := 0
	for _, j := range inst.Failed {
		numOffline += len(dep.Controllers[j].Domain)
	}
	inst.Switches = make([]topo.NodeID, 0, numOffline)
	for _, j := range inst.Failed {
		inst.Switches = append(inst.Switches, dep.Controllers[j].Domain...)
	}
	sort.Slice(inst.Switches, func(a, b int) bool { return inst.Switches[a] < inst.Switches[b] })
	// switchIndex[sw] is the problem index of offline switch sw, or -1.
	switchIndex := growInts(&sc.switchIndex, dep.Graph.NumNodes())
	for i := range switchIndex {
		switchIndex[i] = -1
	}
	for i, sw := range inst.Switches {
		switchIndex[sw] = i
	}

	p := &core.Problem{
		NumSwitches:    len(inst.Switches),
		NumControllers: len(inst.Active),
	}
	if err := ctx.fillProblemMatrices(inst, p); err != nil {
		return nil, err
	}

	// Candidate offline flows: exactly the flows whose path crosses an
	// offline switch (a flow is offline iff some stop — src included — or
	// its destination is offline, and all of those are path nodes), each
	// once and in ascending flow order.
	offFlows := flows.FlowsThrough(sc.offFlows[:0], &sc.seen, inst.Switches)
	sc.offFlows = offFlows

	// Eligible pairs. Pairs are gathered flow-major (flows ascending, and
	// within a flow in path order) and then bucketed by switch below, which
	// yields the (Switch, Flow)-sorted order Finalize expects without a
	// comparison sort.
	pairs := sc.pairs[:0]
	inst.FlowIDs = make([]flow.ID, 0, len(offFlows))
	for _, lf := range offFlows {
		f := &flows.Flows[lf]
		pairStart := len(pairs)
		for _, stop := range f.Stops {
			i := switchIndex[stop.Node]
			if i < 0 {
				continue
			}
			if stop.Programmable() {
				pairs = append(pairs, core.Pair{Switch: i, PBar: stop.PBar()})
			}
		}
		if len(pairs) == pairStart {
			inst.Unrecoverable = append(inst.Unrecoverable, f.ID)
			continue
		}
		flowIdx := len(inst.FlowIDs)
		inst.FlowIDs = append(inst.FlowIDs, f.ID)
		for k := pairStart; k < len(pairs); k++ {
			pairs[k].Flow = flowIdx
		}
	}
	sc.pairs = pairs
	p.Pairs = sortPairsBySwitch(pairs, p.NumSwitches, &sc.start)
	p.NumFlows = len(inst.FlowIDs)
	if p.NumFlows == 0 {
		return nil, fmt.Errorf("%w: failure case has no recoverable offline flows", ErrBadCase)
	}
	if err := p.Finalize(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	inst.Problem = p

	ctx.fillMiddleDelay(inst)
	return inst, nil
}

// fillProblemMatrices populates the Problem's Delay, Gamma, and Rest off the
// Context's cached vectors for the instance's offline switches and active
// controllers; it errors when an active controller was already overloaded
// before the failure.
func (ctx *Context) fillProblemMatrices(inst *Instance, p *core.Problem) error {
	dep, flows := ctx.Dep, ctx.Flows
	// Delay rows are views into one flat backing array — the Problem keeps
	// the [][]float64 shape its consumers index, for two allocations total.
	p.Delay = flatMatrix(p.NumSwitches, p.NumControllers)
	p.Gamma = make([]int, p.NumSwitches)
	for i, sw := range inst.Switches {
		row := p.Delay[i]
		for jj, j := range inst.Active {
			row[jj] = ctx.dist[dep.Controllers[j].Site][sw]
		}
		p.Gamma[i] = flows.SwitchFlowCount(sw)
	}

	// Residual capacities of the active controllers.
	p.Rest = make([]int, p.NumControllers)
	for jj, j := range inst.Active {
		c := dep.Controllers[j]
		rest := c.Capacity - ctx.domainLoad[j]
		if rest < 0 {
			return fmt.Errorf("scenario: controller %d overloaded before failure: load %d > capacity %d",
				j, ctx.domainLoad[j], c.Capacity)
		}
		p.Rest[jj] = rest
	}
	return nil
}

// fillMiddleDelay populates the instance's middle-layer delay matrix:
// switch → layer → controller, all from the cached distance vectors of the
// precomputed centroid site.
func (ctx *Context) fillMiddleDelay(inst *Instance) {
	dep := ctx.Dep
	midDist := ctx.dist[ctx.middleSite]
	inst.MiddleSite = ctx.middleSite
	inst.MiddleDelay = flatMatrix(len(inst.Switches), len(inst.Active))
	for i, sw := range inst.Switches {
		row := inst.MiddleDelay[i]
		for jj, j := range inst.Active {
			row[jj] = midDist[sw] + midDist[dep.Controllers[j].Site] + FlowVisorProcessingMs
		}
	}
}

// flatMatrix builds an n×m [][]float64 whose rows are views into one flat
// backing array: two allocations regardless of n.
func flatMatrix(n, m int) [][]float64 {
	backing := make([]float64, n*m)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// growInts resizes *buf to n without zeroing (callers initialize).
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBools resizes *buf to n and clears it.
func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	s := *buf
	for i := range s {
		s[i] = false
	}
	return s
}

// sortPairsBySwitch reorders flow-major pairs into (Switch, Flow) ascending
// order with a counting sort: pairs arrive with flows ascending, and a simple
// path visits a switch at most once, so stable per-switch bucketing preserves
// ascending flow order within each switch. The returned slice is freshly
// allocated (it is retained by the Problem); the counting table lives in the
// caller's buildScratch.
func sortPairsBySwitch(pairs []core.Pair, numSwitches int, startBuf *[]int) []core.Pair {
	if len(pairs) == 0 {
		return nil
	}
	start := growInts(startBuf, numSwitches+1)
	for i := range start {
		start[i] = 0
	}
	for _, pr := range pairs {
		start[pr.Switch+1]++
	}
	for i := 1; i <= numSwitches; i++ {
		start[i] += start[i-1]
	}
	out := make([]core.Pair, len(pairs))
	for _, pr := range pairs {
		out[start[pr.Switch]] = pr
		start[pr.Switch]++
	}
	return out
}
