package graphalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmedic/internal/topo"
)

// unitWeight weighs every edge 1, producing hop-count shortest paths.
func unitWeight(topo.NodeID, topo.NodeID) float64 { return 1 }

// line builds a path graph 0-1-2-...-(n-1).
func line(t *testing.T, n int) *topo.Graph {
	t.Helper()
	g := &topo.Graph{}
	for i := 0; i < n; i++ {
		g.AddNode("n", 0, float64(i))
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(topo.NodeID(i), topo.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// diamond builds 0-1, 0-2, 1-3, 2-3 (two disjoint 2-hop paths 0->3).
func diamond(t *testing.T) *topo.Graph {
	t.Helper()
	g := &topo.Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode("n", 0, 0)
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := line(t, 5)
	tr, err := Dijkstra(g, 0, unitWeight)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if tr.Dist[i] != float64(i) {
			t.Fatalf("dist[%d] = %v, want %d", i, tr.Dist[i], i)
		}
	}
	path, err := tr.AppendPathTo(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
}

func TestDijkstraWeighted(t *testing.T) {
	g := diamond(t)
	// Make 0-1-3 cheaper than 0-2-3.
	w := func(a, b topo.NodeID) float64 {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 10
		}
		return 1
	}
	tr, err := Dijkstra(g, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	path, err := tr.AppendPathTo(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []topo.NodeID{0, 1, 3}
	if len(path) != 3 || path[1] != want[1] {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if tr.Dist[3] != 2 {
		t.Fatalf("dist = %v, want 2", tr.Dist[3])
	}
}

func TestDijkstraDeterministicTieBreak(t *testing.T) {
	g := diamond(t)
	tr, err := Dijkstra(g, 0, unitWeight)
	if err != nil {
		t.Fatal(err)
	}
	// Both parents of 3 give dist 2; the tie-break prefers node 1.
	if tr.Parent[3] != 1 {
		t.Fatalf("parent of 3 = %d, want 1 (lower-numbered)", tr.Parent[3])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := &topo.Graph{}
	g.AddNode("a", 0, 0)
	g.AddNode("b", 0, 0)
	g.AddNode("c", 0, 0)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tr, err := Dijkstra(g, 0, unitWeight)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tr.Dist[2], 1) {
		t.Fatalf("dist to disconnected node = %v, want +inf", tr.Dist[2])
	}
	if _, err := tr.AppendPathTo(nil, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("AppendPathTo error = %v, want ErrNoPath", err)
	}
}

func TestDijkstraBadSource(t *testing.T) {
	g := line(t, 3)
	if _, err := Dijkstra(g, 7, unitWeight); err == nil {
		t.Fatal("out-of-range source must error")
	}
}

func TestHopDistances(t *testing.T) {
	g := diamond(t)
	d := BFS(g, 0).Hops
	want := []int{0, 1, 1, 2}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("hop[%d] = %d, want %d", i, d[i], v)
		}
	}
	if BFS(g, -1).Hops[0] != -1 {
		t.Fatal("invalid source should leave all distances -1")
	}
}

func TestCountSimplePathsDiamond(t *testing.T) {
	g := diamond(t)
	if got := CountSimplePaths(g, 0, 3, 2, 0); got != 2 {
		t.Fatalf("paths within 2 hops = %d, want 2", got)
	}
	// Allowing 3 hops adds no simple path in the diamond.
	if got := CountSimplePaths(g, 0, 3, 3, 0); got != 2 {
		t.Fatalf("paths within 3 hops = %d, want 2", got)
	}
}

func TestCountSimplePathsPaperExample(t *testing.T) {
	// Domain D2 of the paper's Fig. 1: s20..s24 as 0..4 with the links that
	// make f1 (s21->s24) have 2 paths and f2 (s24->s21) have 3 paths.
	// Edges: s21-s20, s21-s23, s20-s22, s20-s23(absent), s22-s24, s23-s24,
	// s22-s21? The enumerated paths are:
	//   f1: 21-20-22-24, 21-23-24
	//   f2: 24-23-21, 24-22-21, 24-22-20-21
	// which requires edges 21-20, 21-23, 20-22, 22-24, 23-24, 22-21.
	g := &topo.Graph{}
	for i := 0; i < 5; i++ {
		g.AddNode("s2x", 0, 0) // 0=s20 1=s21 2=s22 3=s23 4=s24
	}
	for _, e := range [][2]topo.NodeID{{1, 0}, {1, 3}, {0, 2}, {2, 4}, {3, 4}, {2, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// f1 at s21 toward s24: shortest 2 hops, slack 1.
	if got := CountSimplePaths(g, 1, 4, 3, 0); got != 3 {
		// 21-23-24, 21-22-24, 21-20-22-24: our graph adds edge 21-22 so f1
		// has 3; the paper's figure (without 21-22 counted for f1) reports 2.
		t.Fatalf("f1 paths = %d, want 3 with the 21-22 link present", got)
	}
	// f2 at s24 toward s21: shortest 2 hops, slack 1 -> the paper's 3 paths.
	if got := CountSimplePaths(g, 4, 1, 3, 0); got != 3 {
		t.Fatalf("f2 paths = %d, want 3", got)
	}
}

func TestCountSimplePathsLimit(t *testing.T) {
	g := diamond(t)
	if got := CountSimplePaths(g, 0, 3, 4, 1); got != 1 {
		t.Fatalf("limited count = %d, want 1", got)
	}
}

func TestCountSimplePathsEdgeCases(t *testing.T) {
	g := diamond(t)
	if CountSimplePaths(g, 0, 0, 5, 0) != 0 {
		t.Fatal("src == dst must count 0")
	}
	if CountSimplePaths(g, -1, 3, 5, 0) != 0 || CountSimplePaths(g, 0, 9, 5, 0) != 0 {
		t.Fatal("invalid endpoints must count 0")
	}
	if CountSimplePaths(g, 0, 3, 1, 0) != 0 {
		t.Fatal("budget below shortest distance must count 0")
	}
}

// TestCountSimplePathsAgainstBruteForce cross-checks the pruned DFS against a
// naive enumerator on random graphs.
func TestCountSimplePathsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(4)
		g := &topo.Graph{}
		for i := 0; i < n; i++ {
			g.AddNode("n", 0, 0)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					if err := g.AddEdge(topo.NodeID(a), topo.NodeID(b)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		src, dst := topo.NodeID(0), topo.NodeID(n-1)
		maxHops := 1 + rng.Intn(n)
		want := bruteForcePaths(g, src, dst, maxHops)
		if got := CountSimplePaths(g, src, dst, maxHops, 0); got != want {
			t.Fatalf("trial %d: count = %d, brute force %d (n=%d maxHops=%d)", trial, got, want, n, maxHops)
		}
	}
}

func bruteForcePaths(g *topo.Graph, src, dst topo.NodeID, maxHops int) int {
	if src == dst || maxHops < 1 {
		return 0
	}
	visited := map[topo.NodeID]bool{src: true}
	total := 0
	for _, v := range g.Neighbors(src) {
		if v == dst {
			total++
			continue
		}
		visited[v] = true
		total += recHelper(g, v, dst, 1, maxHops, visited)
		visited[v] = false
	}
	return total
}

func recHelper(g *topo.Graph, u, dst topo.NodeID, hops, maxHops int, visited map[topo.NodeID]bool) int {
	if hops >= maxHops {
		return 0
	}
	total := 0
	for _, v := range g.Neighbors(u) {
		if v == dst {
			total++
			continue
		}
		if !visited[v] {
			visited[v] = true
			total += recHelper(g, v, dst, hops+1, maxHops, visited)
			visited[v] = false
		}
	}
	return total
}

func TestHopMajorComposition(t *testing.T) {
	// A 2-hop cheap-delay path must lose to a 1-hop expensive-delay path.
	g := &topo.Graph{}
	for i := 0; i < 3; i++ {
		g.AddNode("n", 0, 0)
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	delay := func(a, b topo.NodeID) float64 {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 1000 // direct link is slow but one hop
		}
		return 1
	}
	tr := HopMajorTree(g, BFS(g, 0), delay)
	path, err := tr.AppendPathTo(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("hop-major path = %v, want the direct 1-hop link", path)
	}
}

// randomGraph builds a seeded random graph of n nodes: one random spanning
// tree per component (so each is connected) plus chords with probability p. Coordinates
// come from three sites only, so many links share one delay and many are
// co-located (delay 0) — the ties a routing tree must break by parent.
func randomGraph(t *testing.T, rng *rand.Rand, n, components int, p float64) *topo.Graph {
	t.Helper()
	sites := [][2]float64{{40, -74}, {34, -118}, {41, -87}}
	g := &topo.Graph{}
	for i := 0; i < n; i++ {
		s := sites[rng.Intn(len(sites))]
		g.AddNode("n", s[0], s[1])
	}
	comp := func(v int) int { return v * components / n } // contiguous ranges
	lo := 0                                               // first node of v's component
	for v := 1; v < n; v++ {
		if comp(v) != comp(v-1) {
			lo = v
			continue
		}
		if err := g.AddEdge(topo.NodeID(lo+rng.Intn(v-lo)), topo.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if comp(a) == comp(b) && !g.HasEdge(topo.NodeID(a), topo.NodeID(b)) && rng.Float64() < p {
				if err := g.AddEdge(topo.NodeID(a), topo.NodeID(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// oracleGraphs are the fixtures of the layered-pass oracles: ATT, two seeded
// synthetic deployments, and seeded random graphs with co-located nodes, the
// last of them in two components.
func oracleGraphs(t *testing.T, synthetic ...[4]int) map[string]*topo.Graph {
	t.Helper()
	att, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topo.Graph{"att": att.Graph}
	for _, c := range synthetic {
		dep, err := topo.SyntheticWithOpts(c[0], c[1], 1, topo.SyntheticOpts{Seed: uint64(c[2]), Regions: c[3]})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("synthetic%d seed %d", c[0], c[2])] = dep.Graph
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		graphs[fmt.Sprintf("random %d", i)] = randomGraph(t, rng, 5+rng.Intn(20), 1, 0.1+0.3*rng.Float64())
	}
	graphs["random split"] = randomGraph(t, rng, 16, 2, 0.3)
	return graphs
}

// TestCountWithinOneHopMatchesDFS is the oracle of the walk count: for every
// (node, destination) it equals the bounded DFS at one hop of slack, under
// caps that bind at every size, and both sides give 0 across components.
func TestCountWithinOneHopMatchesDFS(t *testing.T) {
	disconnected, capped := 0, 0
	for name, g := range oracleGraphs(t, [4]int{64, 6, 3, 2}) {
		n := g.NumNodes()
		count := make([]int, n)
		for dst := 0; dst < n; dst++ {
			l := BFS(g, topo.NodeID(dst))
			for _, limit := range []int{1, 2, 3, 12, 300} {
				CountWithinOneHop(g, l, limit, count)
				for v := 0; v < n; v++ {
					want := CountSimplePaths(g, topo.NodeID(v), topo.NodeID(dst), l.Hops[v]+1, limit)
					if count[v] != want {
						t.Fatalf("%s limit %d: %d->%d counts %d walks, DFS %d paths", name, limit, v, dst, count[v], want)
					}
					if l.Hops[v] < 0 {
						disconnected++
					}
					if limit == 3 && want == 3 {
						capped++
					}
				}
			}
		}
	}
	if disconnected == 0 || capped == 0 {
		t.Fatalf("fixtures exercise %d disconnected pairs and %d capped counts, want both > 0", disconnected, capped)
	}
}

// TestHopMajorTreeMatchesDijkstra is the oracle of layered routing: from
// every source, Dist and Parent are bit for bit Dijkstra's under the
// composite weight hopUnit + delay, and co-located nodes make the
// lowest-parent rule decide some of them.
func TestHopMajorTreeMatchesDijkstra(t *testing.T) {
	ties := 0
	for name, g := range oracleGraphs(t, [4]int{300, 8, 7, 0}) {
		delay, err := g.EdgeDelaysMs()
		if err != nil {
			t.Fatal(err)
		}
		composite := func(a, b topo.NodeID) float64 { return hopUnit + delay(a, b) }
		for src := 0; src < g.NumNodes(); src++ {
			l := BFS(g, topo.NodeID(src))
			got := HopMajorTree(g, l, delay)
			want, err := Dijkstra(g, topo.NodeID(src), composite)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want.Dist {
				if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Parent[v] != want.Parent[v] {
					t.Fatalf("%s from %d: node %d has (%v, parent %d), Dijkstra (%v, parent %d)",
						name, src, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
				}
				if v == src || got.Parent[v] < 0 {
					continue
				}
				// A tie: another parent one layer closer reaches v as cheaply.
				g.ForEachNeighbor(topo.NodeID(v), func(u topo.NodeID) {
					if u != got.Parent[v] && l.Hops[u] == l.Hops[v]-1 && got.Dist[u]+(hopUnit+delay(u, topo.NodeID(v))) == got.Dist[v] {
						ties++
					}
				})
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-cost parents in the fixtures: the tie-break is unexercised")
	}
}
