package scenario

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/graphalg"
	"pmedic/internal/par"
	"pmedic/internal/topo"
)

// Context is everything about a (Deployment, Set) pair that does not depend
// on which controllers failed: shortest-path delay vectors from every node,
// the FlowVisor-style middle-layer placement, and the pre-failure load of
// every controller domain. Building a Context costs one Dijkstra per node,
// on as many cores as flow.Workers grants the graph; compiling a failure
// case against it (Context.Build) is then pure slicing
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
	// middleSite is the delay-centroid node hosting the middle layer; it
	// depends only on the topology, not on the failure case.
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

	// One Dijkstra per node, on flow.Workers(n) workers; the lowest node's
	// error is the one a serial pass meets first.
	ctx.dist = make([][]float64, n)
	errs := make([]error, n)
	par.For(n, flow.Workers(n), func(v int) {
		tree, err := graphalg.Dijkstra(g, topo.NodeID(v), delayW)
		if err != nil {
			errs[v] = fmt.Errorf("scenario: delays from %d: %w", v, err)
			return
		}
		ctx.dist[v] = tree.Dist
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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

// buildScratch holds Context.Build's per-case working memory. Instances are
// recycled through buildPool: the Context is shared by concurrent sweep
// workers, so the scratch cannot live on the Context itself, and the pool
// keeps each worker's steady-state case compilation free of per-case slice
// churn.
type buildScratch struct {
	isFailed []bool
	// through and recoverable are one-bit-per-flow sets over the workload:
	// the flows crossing an offline switch, and those of them some offline
	// switch can reroute. Both are all zero between builds. rank[w] counts
	// the recoverable flows below word w.
	through     []uint64
	recoverable []uint64
	rank        []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// Build compiles the failure of the given controllers (indices into
// Dep.Controllers) into an Instance, reusing the Context's cached state. It
// produces exactly the Instance that scenario.Build would, case for case and
// byte for byte; only the shared precomputation is skipped.
//
// The flow side is read off the workload's switch→flows index alone — two
// sequential passes over the offline switches' entries, cost proportional to
// the traffic actually crossing the failed domains — with no flow looked at
// and nothing sorted, which is what makes a sweep case at 10⁶ all-pairs flows
// affordable.
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
	isFailed := grow(&sc.isFailed, m)
	clear(isFailed)
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
	slices.Sort(inst.Switches)

	p := &core.Problem{
		NumSwitches:    len(inst.Switches),
		NumControllers: len(inst.Active),
	}
	if err := ctx.fillProblemMatrices(inst, p); err != nil {
		return nil, err
	}
	ctx.fillFlows(sc, inst, p)
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

// fillFlows compiles the case's flow side — inst.FlowIDs and Unrecoverable,
// p.NumFlows and p.Pairs — from the offline switches' slices of the
// switch→flows index. A flow is offline iff its path crosses an offline
// switch, and recoverable iff one of those can reroute it (p̄ >= 2), so the
// slices hold everything the case needs. sc's bit sets are all zero again on
// return.
func (ctx *Context) fillFlows(sc *buildScratch, inst *Instance, p *core.Problem) {
	flows := ctx.Flows
	words := (flows.Len() + 63) / 64
	through, recoverable := grow(&sc.through, words), grow(&sc.recoverable, words)
	rank := grow(&sc.rank, words)

	// Pass 1: mark the offline and the recoverable flows, count the pairs.
	numPairs := 0
	for _, sw := range inst.Switches {
		for _, e := range flows.Through(sw) {
			w, bit := e.Flow>>6, uint64(1)<<(e.Flow&63)
			through[w] |= bit
			if e.PBar != 0 {
				recoverable[w] |= bit
				numPairs++
			}
		}
	}

	// The sets' words in order give both flow lists ascending, and the
	// problem index of a recoverable flow: its rank in its set.
	numFlows, numUnrecoverable := 0, 0
	for w, word := range recoverable {
		rank[w] = int32(numFlows)
		numFlows += bits.OnesCount64(word)
		numUnrecoverable += bits.OnesCount64(through[w] &^ word)
	}
	inst.FlowIDs = make([]flow.ID, 0, numFlows)
	if numUnrecoverable > 0 {
		inst.Unrecoverable = make([]flow.ID, 0, numUnrecoverable)
	}
	for w, word := range recoverable {
		for rest := word; rest != 0; rest &= rest - 1 {
			inst.FlowIDs = append(inst.FlowIDs, flow.ID(w<<6+bits.TrailingZeros64(rest)))
		}
		for rest := through[w] &^ word; rest != 0; rest &= rest - 1 {
			inst.Unrecoverable = append(inst.Unrecoverable, flow.ID(w<<6+bits.TrailingZeros64(rest)))
		}
	}
	p.NumFlows = numFlows

	// Pass 2: the pairs, switch-major with flows ascending within a switch —
	// the order Finalize checks and every later stage reads, so nothing
	// downstream sorts or indexes a switch's pairs.
	pairs := make([]core.Pair, 0, numPairs)
	for i, sw := range inst.Switches {
		for _, e := range flows.Through(sw) {
			if e.PBar == 0 {
				continue
			}
			w, below := e.Flow>>6, uint64(1)<<(e.Flow&63)-1
			pairs = append(pairs, core.Pair{
				Switch: i,
				Flow:   int(rank[w]) + bits.OnesCount64(recoverable[w]&below),
				PBar:   int(e.PBar),
			})
		}
	}
	p.Pairs = pairs
	clear(through)
	clear(recoverable)
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

// grow returns *buf resized to n, reallocated (all zero) when it is too small.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
