// Package graphalg provides the graph algorithms the reproduction relies on:
// Dijkstra shortest paths, BFS layers with the hop-primary/delay-secondary
// routing tree built on them, and simple-path counting (the path
// programmability coefficient p_i^l of the paper) — by walk counting within
// one hop of the shortest, by a bounded DFS beyond that.
package graphalg

import (
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

// item is a priority-queue entry for Dijkstra.
type item struct {
	node topo.NodeID
	dist float64
}

// pq is Dijkstra's binary min-heap on dist. push and pop sift exactly as
// container/heap's Push and Pop do, so entries of equal distance leave in the
// same order — and every tie in a tree resolves the same way — without boxing
// each item in an interface.
type pq []item

func (q *pq) push(it item) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() item {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
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
	q := pq{{node: src, dist: 0}}
	for len(q) > 0 {
		u := q.pop().node
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
				q.push(item{node: v, dist: nd})
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

// Layers is a breadth-first search from Root: Hops[v] is v's hop distance
// from Root (-1 if unreachable) and Order lists the reachable nodes in the
// order the search visited them, so Hops never decreases along it. In an
// undirected graph the layers from a node serve both directions: routing out
// of it and counting paths into it.
type Layers struct {
	Root  topo.NodeID
	Hops  []int
	Order []topo.NodeID
}

// BFS computes the breadth-first layers from src. An out-of-range src
// reaches nothing: every hop distance is -1 and Order is empty.
func BFS(g *topo.Graph, src topo.NodeID) Layers {
	n := g.NumNodes()
	l := Layers{Root: src, Hops: make([]int, n)}
	for i := range l.Hops {
		l.Hops[i] = -1
	}
	if src < 0 || int(src) >= n {
		return l
	}
	l.Hops[src] = 0
	l.Order = make([]topo.NodeID, 1, n)
	l.Order[0] = src
	for head := 0; head < len(l.Order); head++ {
		u := l.Order[head]
		g.ForEachNeighbor(u, func(v topo.NodeID) {
			if l.Hops[v] < 0 {
				l.Hops[v] = l.Hops[u] + 1
				l.Order = append(l.Order, v)
			}
		})
	}
	return l
}

// hopUnit is the hop term of the hop-major metric. The composition is exact
// while every path's total delay stays below it: 2^20 ms is ~10^4 hops of the
// longest great-circle link.
const hopUnit = 1 << 20

// HopMajorTree returns the shortest-path tree from l.Root under the
// hop-primary, delay-secondary metric hopUnit + delay(u, v): among paths with
// the fewest hops, the one with the least total delay, ties toward the
// lower-numbered parent. It is the tree Dijkstra builds under that weight,
// Dist and Parent bit for bit, without a heap: every node of hop layer h
// sorts below every node of layer h+1, so Dijkstra settles a node only ever
// from the layer before it. One pass in BFS order takes, per node, the
// minimum of the same float expression over that layer, lowest parent on a
// tie.
func HopMajorTree(g *topo.Graph, l Layers, delay Weight) *Tree {
	n := g.NumNodes()
	t := &Tree{Src: l.Root, Dist: make([]float64, n), Parent: make([]topo.NodeID, n)}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = -1
	}
	if len(l.Order) == 0 {
		return t
	}
	t.Dist[l.Root] = 0
	for _, v := range l.Order[1:] {
		up := l.Hops[v] - 1
		g.ForEachNeighbor(v, func(u topo.NodeID) {
			if l.Hops[u] != up {
				return
			}
			nd := t.Dist[u] + (hopUnit + delay(u, v))
			if nd < t.Dist[v] || nd == t.Dist[v] && u < t.Parent[v] {
				t.Dist[v] = nd
				t.Parent[v] = u
			}
		})
	}
	return t
}

// CountWithinOneHop sets count[v] to the number of simple paths from v to
// l.Root of at most Hops[v]+1 hops, capped at limit (limit <= 0 means
// unlimited), for every node v: what CountSimplePaths(g, v, l.Root,
// Hops[v]+1, limit) returns, for a whole destination at once. The root and
// unreachable nodes count 0.
//
// Every walk that short is a simple path: a repeated node would close a cycle
// of at least two hops, and cutting it out would leave a walk to the root
// shorter than the hop distance. So it counts walks, in O(V+E): A(v), the
// shortest walks, sums A over v's neighbours one layer closer; B(v), the
// walks one hop longer, sums B over those neighbours and A over v's
// neighbours in its own layer. Sums saturate at limit, which min commutes
// with, so the cap costs no exactness.
func CountWithinOneHop(g *topo.Graph, l Layers, limit int, count []int) {
	if limit <= 0 {
		limit = math.MaxInt
	}
	add := func(a, b int) int {
		if b > limit-a {
			return limit
		}
		return a + b
	}
	for i := range count {
		count[i] = 0
	}
	if len(l.Order) == 0 {
		return
	}
	shortest := make([]int, len(count))
	shortest[l.Root] = 1
	for _, v := range l.Order[1:] {
		up := l.Hops[v] - 1
		g.ForEachNeighbor(v, func(u topo.NodeID) {
			if l.Hops[u] == up {
				shortest[v] = add(shortest[v], shortest[u])
			}
		})
	}
	// count holds B until the last pass: B(u) of the layer before is read
	// while the current layer is summed.
	for _, v := range l.Order[1:] {
		h := l.Hops[v]
		g.ForEachNeighbor(v, func(u topo.NodeID) {
			switch l.Hops[u] {
			case h - 1:
				count[v] = add(count[v], count[u])
			case h:
				count[v] = add(count[v], shortest[u])
			}
		})
	}
	for _, v := range l.Order[1:] {
		count[v] = add(count[v], shortest[v])
	}
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
	toDst := BFS(g, dst).Hops
	if toDst[src] < 0 || toDst[src] > maxHops {
		return 0
	}
	visited := make([]bool, n)
	count := 0
	var dfs func(u topo.NodeID, budget int)
	dfs = func(u topo.NodeID, budget int) {
		g.ForEachNeighbor(u, func(v topo.NodeID) {
			if limit > 0 && count >= limit {
				return
			}
			if v == dst {
				count++
				return
			}
			if visited[v] || toDst[v] < 0 || toDst[v] > budget-1 {
				return
			}
			visited[v] = true
			dfs(v, budget-1)
			visited[v] = false
		})
	}
	visited[src] = true
	dfs(src, maxHops)
	return count
}
