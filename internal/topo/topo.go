// Package topo models wide-area network topologies: nodes with geographic
// coordinates, undirected links, and propagation delays derived from
// great-circle distances.
//
// The package is the substrate that replaces the Topology Zoo GraphML files
// used by the paper: the evaluation topology (an ATT-North-America-like US
// backbone) is embedded in Go (see ATT) because the build is fully offline.
package topo

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node (an SDN switch site) within a Graph. IDs are
// dense: a graph with n nodes uses IDs 0..n-1.
type NodeID int

// Node is a switch site: a point of presence with a name and geographic
// coordinates in decimal degrees.
type Node struct {
	ID   NodeID
	Name string
	Lat  float64
	Lon  float64
}

// Edge is an undirected link between two sites. Invariant: A < B.
type Edge struct {
	A, B NodeID
}

// Graph is an undirected network topology. The zero value is an empty graph;
// use AddNode and AddEdge to populate it. Graph is not safe for concurrent
// mutation, but read-only use from multiple goroutines is safe.
type Graph struct {
	nodes []Node
	adj   [][]NodeID
	edges []Edge
}

// Errors returned by graph mutators and accessors.
var (
	// ErrNodeOutOfRange reports a NodeID that does not exist in the graph.
	ErrNodeOutOfRange = errors.New("topo: node id out of range")
	// ErrSelfLoop reports an attempt to link a node to itself.
	ErrSelfLoop = errors.New("topo: self loop")
	// ErrDuplicateEdge reports an attempt to add an edge twice.
	ErrDuplicateEdge = errors.New("topo: duplicate edge")
)

// AddNode appends a node and returns its ID. The caller-supplied ID field of
// the argument is ignored; IDs are assigned densely in insertion order.
func (g *Graph) AddNode(name string, lat, lon float64) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Lat: lat, Lon: lon})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge adds an undirected link between a and b.
func (g *Graph) AddEdge(a, b NodeID) error {
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("%w: (%d, %d) with %d nodes", ErrNodeOutOfRange, a, b, len(g.nodes))
	}
	if a == b {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, a)
	}
	if a > b {
		a, b = b, a
	}
	for _, n := range g.adj[a] {
		if n == b {
			return fmt.Errorf("%w: (%d, %d)", ErrDuplicateEdge, a, b)
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.edges = append(g.edges, Edge{A: a, B: b})
	return nil
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected links.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumDirectedLinks returns the number of directed links (twice NumEdges);
// this is the convention Topology Zoo and the paper use when quoting
// "112 links" for the 56-edge ATT graph.
func (g *Graph) NumDirectedLinks() int { return 2 * len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.valid(id) {
		return Node{}, fmt.Errorf("%w: %d", ErrNodeOutOfRange, id)
	}
	return g.nodes[id], nil
}

// Nodes returns a copy of all nodes in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of all undirected links.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the number of neighbors of id, or 0 for an invalid ID.
func (g *Graph) Degree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.adj[id])
}

// Neighbors returns a sorted copy of id's neighbor list.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		return nil
	}
	out := make([]NodeID, len(g.adj[id]))
	copy(out, g.adj[id])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEachNeighbor calls fn for every neighbor of id. It avoids the allocation
// of Neighbors and is intended for hot paths such as path enumeration.
func (g *Graph) ForEachNeighbor(id NodeID, fn func(NodeID)) {
	if !g.valid(id) {
		return
	}
	for _, n := range g.adj[id] {
		fn(n)
	}
}

// HasEdge reports whether an undirected link (a, b) exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if !g.valid(a) || !g.valid(b) {
		return false
	}
	for _, n := range g.adj[a] {
		if n == b {
			return true
		}
	}
	return false
}

// Connected reports whether the graph is connected (true for empty graphs).
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, n := range g.adj[v] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return count == len(g.nodes)
}

const (
	earthRadiusKm = 6371.0
	// propagationSpeedKmPerMs is the signal propagation speed used by the
	// paper: 2*10^8 m/s = 200 km/ms.
	propagationSpeedKmPerMs = 200.0
)

// HaversineKm returns the great-circle distance in kilometers between two
// coordinates given in decimal degrees.
func HaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	phi1 := lat1 * degToRad
	phi2 := lat2 * degToRad
	dPhi := (lat2 - lat1) * degToRad
	dLambda := (lon2 - lon1) * degToRad
	s1 := math.Sin(dPhi / 2)
	s2 := math.Sin(dLambda / 2)
	a := s1*s1 + math.Cos(phi1)*math.Cos(phi2)*s2*s2
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// DistanceKm returns the great-circle distance between two nodes.
func (g *Graph) DistanceKm(a, b NodeID) (float64, error) {
	na, err := g.Node(a)
	if err != nil {
		return 0, err
	}
	nb, err := g.Node(b)
	if err != nil {
		return 0, err
	}
	return HaversineKm(na.Lat, na.Lon, nb.Lat, nb.Lon), nil
}

// LinkDelayMs returns the propagation delay of the direct link (a, b) in
// milliseconds, following the paper: haversine distance divided by 2*10^8 m/s.
// The link does not need to exist; the value is purely geometric.
func (g *Graph) LinkDelayMs(a, b NodeID) (float64, error) {
	d, err := g.DistanceKm(a, b)
	if err != nil {
		return 0, err
	}
	return d / propagationSpeedKmPerMs, nil
}

// EdgeDelaysMs returns the link delays as a weight function for
// shortest-path computations: w(a, b) is LinkDelayMs(a, b) for every edge,
// read from a dense n×n table built once (8 MB at 1 000 nodes). It returns 0
// for a pair that is not an edge, so callers must ask only about edges.
func (g *Graph) EdgeDelaysMs() (func(a, b NodeID) float64, error) {
	n := len(g.nodes)
	w := make([]float64, n*n)
	for _, e := range g.edges {
		d, err := g.LinkDelayMs(e.A, e.B)
		if err != nil {
			return nil, err
		}
		w[int(e.A)*n+int(e.B)] = d
		w[int(e.B)*n+int(e.A)] = d
	}
	return func(a, b NodeID) float64 {
		return w[int(a)*n+int(b)]
	}, nil
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation: the graph must be non-empty, connected, and free of
// isolated nodes.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("topo: empty graph")
	}
	for id := range g.nodes {
		if len(g.adj[id]) == 0 {
			return fmt.Errorf("topo: isolated node %d (%s)", id, g.nodes[id].Name)
		}
	}
	if !g.Connected() {
		return errors.New("topo: graph is not connected")
	}
	return nil
}
