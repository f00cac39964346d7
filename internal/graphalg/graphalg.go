// Package graphalg provides the graph algorithms the reproduction relies on:
// Dijkstra shortest paths (with a hop-primary composite metric for flow
// routing), BFS hop distances, and bounded simple-path counting (the path
// programmability coefficient p_i^l of the paper).
package graphalg

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"pmedic/internal/topo"
)

// Weight returns the weight of the directed edge (a, b). It is only called
// for pairs that are adjacent in the graph.
type Weight func(a, b topo.NodeID) float64

// ErrNoPath reports that the destination is unreachable from the source.
var ErrNoPath = errors.New("graphalg: no path")

// HopMajor composes a hop-primary, delay-secondary metric: among paths with
// the same hop count, the one with the smaller total delay wins. delay must
// be strictly below hopUnit for the composition to be exact.
func HopMajor(delay Weight) Weight {
	const hopUnit = 1 << 20
	return func(a, b topo.NodeID) float64 {
		return hopUnit + delay(a, b)
	}
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	node topo.NodeID
	dist float64
}

type pq []item

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

func (q *pq) Push(x any) {
	it, ok := x.(item)
	if !ok {
		return // unreachable: Push is only called via heap.Push below
	}
	*q = append(*q, it)
}

func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Tree is a shortest-path tree rooted at Src: Dist[v] is the total weight of
// the shortest src→v path (math.Inf(1) if unreachable) and Parent[v] the
// predecessor of v on it (-1 for the root and unreachable nodes).
type Tree struct {
	Src    topo.NodeID
	Dist   []float64
	Parent []topo.NodeID
}

// Dijkstra computes a shortest-path tree from src under w. Ties are broken
// deterministically toward the lower-numbered parent node, so the routing it
// induces is stable across runs.
func Dijkstra(g *topo.Graph, src topo.NodeID, w Weight) (*Tree, error) {
	n := g.NumNodes()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("graphalg: dijkstra: source %d out of range [0,%d)", src, n)
	}
	t := &Tree{
		Src:    src,
		Dist:   make([]float64, n),
		Parent: make([]topo.NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = -1
	}
	t.Dist[src] = 0
	done := make([]bool, n)
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it, _ := heap.Pop(q).(item)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		g.ForEachNeighbor(u, func(v topo.NodeID) {
			if done[v] {
				return
			}
			nd := t.Dist[u] + w(u, v)
			switch {
			case nd < t.Dist[v]:
				t.Dist[v] = nd
				t.Parent[v] = u
				heap.Push(q, item{node: v, dist: nd})
			case nd == t.Dist[v] && t.Parent[v] >= 0 && u < t.Parent[v]:
				// Deterministic tie-break: prefer the lower-numbered parent.
				t.Parent[v] = u
			}
		})
	}
	return t, nil
}

// AppendPathTo appends the src→dst node sequence (inclusive of both
// endpoints) to buf and returns the extended slice; a nil buf yields a fresh
// path. Callers that concatenate many paths into one flat CSR-style array
// (internal/flow's workload storage) pass the array and allocate nothing. It
// returns ErrNoPath if dst is unreachable.
func (t *Tree) AppendPathTo(buf []topo.NodeID, dst topo.NodeID) ([]topo.NodeID, error) {
	if int(dst) >= len(t.Dist) || dst < 0 {
		return buf, fmt.Errorf("graphalg: path: destination %d out of range", dst)
	}
	if math.IsInf(t.Dist[dst], 1) {
		return buf, fmt.Errorf("%w: %d -> %d", ErrNoPath, t.Src, dst)
	}
	start := len(buf)
	for v := dst; ; v = t.Parent[v] {
		buf = append(buf, v)
		if v == t.Src {
			break
		}
		if t.Parent[v] < 0 {
			return buf[:start], fmt.Errorf("%w: broken parent chain at %d", ErrNoPath, v)
		}
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, nil
}

// HopDistances returns BFS hop counts from src (-1 for unreachable nodes).
func HopDistances(g *topo.Graph, src topo.NodeID) []int {
	n := g.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || int(src) >= n {
		return dist
	}
	dist[src] = 0
	queue := make([]topo.NodeID, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(u, func(v topo.NodeID) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		})
	}
	return dist
}

// CountSimplePaths counts simple paths from src to dst whose hop length is at
// most maxHops, stopping early once limit paths have been found (limit <= 0
// means unlimited). A node has no path to itself: src == dst counts 0. The
// search is pruned with BFS hop distances to dst, so the cost is
// proportional to the number of enumerated prefixes that can still reach dst
// in budget.
func CountSimplePaths(g *topo.Graph, src, dst topo.NodeID, maxHops, limit int) int {
	n := g.NumNodes()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return 0
	}
	if src == dst {
		return 0
	}
	toDst := HopDistances(g, dst)
	return CountSimplePathsPruned(g, src, dst, maxHops, limit, toDst, make([]bool, n))
}

// CountSimplePathsPruned is CountSimplePaths with the per-destination BFS hop
// distances and the visited scratch supplied by the caller. Workload
// generation counts paths for up to n² (node, destination) pairs and already
// holds every destination's hop vector, so recomputing a BFS (O(V+E)) per
// count would dominate the search itself at scale. visited must be all-false
// on entry and is restored to all-false on return.
func CountSimplePathsPruned(g *topo.Graph, src, dst topo.NodeID, maxHops, limit int, toDst []int, visited []bool) int {
	n := g.NumNodes()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return 0
	}
	if src == dst {
		return 0
	}
	if toDst[src] < 0 || toDst[src] > maxHops {
		return 0
	}
	c := pathCounter{
		g:       g,
		dst:     dst,
		toDst:   toDst,
		limit:   limit,
		visited: visited,
	}
	c.visited[src] = true
	c.dfs(src, maxHops)
	c.visited[src] = false
	return c.count
}

type pathCounter struct {
	g       *topo.Graph
	dst     topo.NodeID
	toDst   []int
	limit   int
	visited []bool
	count   int
}

func (c *pathCounter) dfs(u topo.NodeID, budget int) {
	if c.limit > 0 && c.count >= c.limit {
		return
	}
	c.g.ForEachNeighbor(u, func(v topo.NodeID) {
		if c.limit > 0 && c.count >= c.limit {
			return
		}
		if v == c.dst {
			c.count++
			return
		}
		if c.visited[v] || c.toDst[v] < 0 || c.toDst[v] > budget-1 {
			return
		}
		c.visited[v] = true
		c.dfs(v, budget-1)
		c.visited[v] = false
	})
}
