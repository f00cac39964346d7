package graphalg

import (
	"math"
	"testing"

	"pmedic/internal/topo"
)

func TestBetweennessStar(t *testing.T) {
	// A star: the center lies on every leaf-to-leaf shortest path.
	g := &topo.Graph{}
	center := g.AddNode("c", 0, 0)
	for i := 0; i < 4; i++ {
		leaf := g.AddNode("l", 0, 0)
		if err := g.AddEdge(center, leaf); err != nil {
			t.Fatal(err)
		}
	}
	bc := Betweenness(g)
	if math.Abs(bc[center]-1) > 1e-9 {
		t.Fatalf("center betweenness = %v, want 1 (normalized)", bc[center])
	}
	for v := 1; v < g.NumNodes(); v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf %d betweenness = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2: node 1 carries the single 0<->2 pair.
	g := &topo.Graph{}
	for i := 0; i < 3; i++ {
		g.AddNode("n", 0, 0)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	bc := Betweenness(g)
	// Normalization: (n-1)(n-2) = 2 ordered pairs; node 1 is on both.
	if math.Abs(bc[1]-1) > 1e-9 {
		t.Fatalf("middle betweenness = %v, want 1", bc[1])
	}
}

func TestBetweennessSplitsOverEqualPaths(t *testing.T) {
	// Diamond 0-1-3, 0-2-3: nodes 1 and 2 each carry half of 0<->3.
	g := &topo.Graph{}
	for i := 0; i < 4; i++ {
		g.AddNode("n", 0, 0)
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	bc := Betweenness(g)
	// Ordered pairs: (0,3) and (3,0) -> each contributes 0.5 to both 1 and 2.
	// Normalization (n-1)(n-2) = 6.
	want := 1.0 / 6.0
	if math.Abs(bc[1]-want) > 1e-9 || math.Abs(bc[2]-want) > 1e-9 {
		t.Fatalf("bc = %v, want %v at nodes 1 and 2", bc, want)
	}
	if math.Abs(bc[1]-bc[2]) > 1e-12 {
		t.Fatal("symmetric nodes must tie")
	}
}

func TestBetweennessTinyGraphs(t *testing.T) {
	g := &topo.Graph{}
	if bc := Betweenness(g); len(bc) != 0 {
		t.Fatal("empty graph")
	}
	g.AddNode("a", 0, 0)
	g.AddNode("b", 0, 0)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	bc := Betweenness(g)
	if bc[0] != 0 || bc[1] != 0 {
		t.Fatalf("two-node betweenness = %v", bc)
	}
}

func TestTopBetweennessOnATT(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	// The evaluation topology is built around hub 13 (Chicago): it must be
	// the single most central node.
	bc := Betweenness(dep.Graph)
	for v := range bc {
		if v != 13 && bc[v] >= bc[13] {
			t.Fatalf("node %d betweenness %v >= hub 13's %v", v, bc[v], bc[13])
		}
	}
}
