package scenario

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/graphalg"
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

// TestNewContextDelaysMatchSerialDijkstra holds NewContext's delay vectors,
// at GOMAXPROCS 1, 2 and 8, to a plain serial loop of one Dijkstra per node,
// bit for bit, on TestSwitchIndexPinned's 300-node synthetic: a graph above
// the size from which the Dijkstras fan out. The centroid and the domain
// loads read those vectors and the index, so they must not move either.
func TestNewContextDelaysMatchSerialDijkstra(t *testing.T) {
	dep, err := topo.SyntheticWithOpts(300, 8, 500, topo.SyntheticOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := dep.Graph
	flows, err := flow.Generate(g, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	delay, err := g.EdgeDelaysMs()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, g.NumNodes())
	for v := range want {
		tree, err := graphalg.Dijkstra(g, topo.NodeID(v), delay)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = tree.Dist
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serial *Context
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if w := flow.Workers(g.NumNodes()); w != procs {
			t.Fatalf("GOMAXPROCS %d: %d nodes run on %d workers", procs, g.NumNodes(), w)
		}
		ctx, err := NewContext(dep, flows)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if !slices.Equal(ctx.dist[v], want[v]) {
				t.Fatalf("GOMAXPROCS %d: delays from %d differ from the serial Dijkstra", procs, v)
			}
		}
		if serial == nil {
			serial = ctx
		}
		if ctx.middleSite != serial.middleSite || !slices.Equal(ctx.domainLoad, serial.domainLoad) {
			t.Fatalf("GOMAXPROCS %d: middle site %d, loads %v; at GOMAXPROCS 1 %d, %v",
				procs, ctx.middleSite, ctx.domainLoad, serial.middleSite, serial.domainLoad)
		}
	}
}

// syntheticFixtures is a 64-node, 6-controller clustered deployment with
// all-pairs traffic (4 032 flows) and capacity 1.5× the heaviest domain: with
// two or three domains down most offline flows cross several offline switches,
// so the compile's CSR gather sees each of them several times.
func syntheticFixtures(t *testing.T) (*topo.Deployment, *flow.Set) {
	t.Helper()
	opts := topo.SyntheticOpts{Seed: 3, Regions: 2}
	dep, err := topo.SyntheticWithOpts(64, 6, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		maxLoad = max(maxLoad, load)
	}
	if dep, err = topo.SyntheticWithOpts(64, 6, maxLoad+maxLoad/2+1, opts); err != nil {
		t.Fatal(err)
	}
	return dep, flows
}

// pBarOracle returns p̄ at (v, dst) computed apart from the workload
// generator: graphalg.CountSimplePaths runs its own BFS on fresh scratch, and
// only the oracle's own answers are memoized.
func pBarOracle(g *topo.Graph, opts flow.Options) func(v, dst topo.NodeID) int {
	memo := map[[2]topo.NodeID]int{}
	return func(v, dst topo.NodeID) int {
		key := [2]topo.NodeID{v, dst}
		c, ok := memo[key]
		if !ok {
			maxHops := graphalg.BFS(g, dst).Hops[v] + 1
			if c = graphalg.CountSimplePaths(g, v, dst, maxHops, opts.Limit); c < 2 {
				c = 0
			}
			memo[key] = c
		}
		return c
	}
}

// scanCase compiles a case's flow side the slow way — every flow of the
// workload in ID order, every switch before its destination against the
// offline set, p̄ from the oracle — which is the order and content
// Context.Build must reproduce from its gather.
func scanCase(dep *topo.Deployment, flows *flow.Set, pBar func(v, dst topo.NodeID) int, failed []int) (flowIDs, unrecoverable []flow.ID, pairs []core.Pair) {
	var switches []topo.NodeID
	for _, j := range failed {
		switches = append(switches, dep.Controllers[j].Domain...)
	}
	sort.Slice(switches, func(a, b int) bool { return switches[a] < switches[b] })
	index := make(map[topo.NodeID]int, len(switches))
	for i, sw := range switches {
		index[sw] = i
	}
	for l := range flows.Flows {
		f := &flows.Flows[l]
		offline, recoverable := false, false
		for k, v := range f.Path {
			i, ok := index[v]
			if !ok {
				continue
			}
			offline = true
			if k == len(f.Path)-1 {
				continue
			}
			if c := pBar(v, f.Dst); c > 0 {
				pairs = append(pairs, core.Pair{Switch: i, Flow: len(flowIDs), PBar: c})
				recoverable = true
			}
		}
		switch {
		case recoverable:
			flowIDs = append(flowIDs, f.ID)
		case offline:
			unrecoverable = append(unrecoverable, f.ID)
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Switch < pairs[b].Switch })
	return flowIDs, unrecoverable, pairs
}

// TestContextBuildMatchesScan is the oracle for the mark-and-scan compile on
// cases whose gather holds duplicates: every failure set of up to three
// controllers (and the invalid ones) through one shared Context must equal
// the one-shot scenario.Build — instances DeepEqual, errors string-equal —
// and its flows and pairs must equal an all-flows scan. The scan walks flows
// in ID order, so this pins the Instance contract that FlowIDs and
// Unrecoverable are each ascending and disjoint, which the medic's adopt step
// merges on.
func TestContextBuildMatchesScan(t *testing.T) {
	dep, flows := syntheticFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	m := len(dep.Controllers)
	cases := append(CombinationsUpTo(m, 3), nil, []int{m}, []int{2, 2}, []int{0, 1, 2, 3, 4, 5})
	pBar := pBarOracle(dep.Graph, flows.Options())
	duplicates := 0
	for _, failed := range cases {
		fresh, freshErr := Build(dep, flows, failed)
		cached, cachedErr := ctx.Build(failed)
		if (freshErr == nil) != (cachedErr == nil) || (freshErr != nil && freshErr.Error() != cachedErr.Error()) {
			t.Fatalf("case %v: Context.Build err %v, Build err %v", failed, cachedErr, freshErr)
		}
		if freshErr != nil {
			continue
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Fatalf("case %v: shared-context instance differs from one-shot Build", failed)
		}
		flowIDs, unrecoverable, pairs := scanCase(dep, flows, pBar, failed)
		if !reflect.DeepEqual(cached.FlowIDs, flowIDs) || !reflect.DeepEqual(cached.Unrecoverable, unrecoverable) {
			t.Fatalf("case %v: offline flows differ from the all-flows scan: %d+%d flows, want %d+%d",
				failed, len(cached.FlowIDs), len(cached.Unrecoverable), len(flowIDs), len(unrecoverable))
		}
		if !reflect.DeepEqual(cached.Problem.Pairs, pairs) {
			t.Fatalf("case %v: pairs differ from the all-flows scan", failed)
		}
		for _, sw := range cached.Switches {
			duplicates += flows.SwitchFlowCount(sw)
		}
		duplicates -= cached.OfflineFlowCount()
	}
	if duplicates == 0 {
		t.Fatal("fixture never put a flow through two offline switches")
	}
}

// TestContextBuildScratchHygiene hands one scratch to a compile that fails
// after the gather — a line topology has one path per flow, so no offline flow
// is recoverable — and then to a valid compile on another Context of the same
// size (so every scratch array is reused, not regrown), which must equal the
// same compile on a cold scratch.
func TestContextBuildScratchHygiene(t *testing.T) {
	g := &topo.Graph{}
	for v := 0; v < 64; v++ {
		g.AddNode("", 30, -120+float64(v))
		if v > 0 {
			if err := g.AddEdge(topo.NodeID(v-1), topo.NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	lineDep, err := topo.AutoDeployment(g, 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	lineFlows, err := flow.Generate(g, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewContext(lineDep, lineFlows)
	if err != nil {
		t.Fatal(err)
	}
	dep, flows := syntheticFixtures(t)
	ctx, err := NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}

	if lineFlows.Len() < flows.Len() {
		t.Fatalf("line workload has %d flows, fewer than the %d the valid compile marks", lineFlows.Len(), flows.Len())
	}

	sc := new(buildScratch)
	const wantErr = "scenario: invalid failure case: failure case has no recoverable offline flows"
	if _, err := line.build(sc, []int{0, 1}); err == nil || err.Error() != wantErr {
		t.Fatalf("line topology: err %v, want %q", err, wantErr)
	}
	if cap(sc.through) == 0 || cap(sc.recoverable) == 0 {
		t.Fatal("the failing compile never reached the gather")
	}
	for _, set := range [][]uint64{sc.through, sc.recoverable} {
		for w, word := range set[:cap(set)] {
			if word != 0 {
				t.Fatalf("scratch word %d = %#x after the failed compile, want 0", w, word)
			}
		}
	}
	warm, err := ctx.build(sc, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ctx.build(new(buildScratch), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("compile on a scratch left by a failed compile differs from a cold one")
	}
}
