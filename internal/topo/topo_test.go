package topo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := &Graph{}
	for i := 0; i < 5; i++ {
		if id := g.AddNode("n", 0, 0); int(id) != i {
			t.Fatalf("AddNode #%d returned id %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 1, 1)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, a); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate edge error = %v, want ErrDuplicateEdge", err)
	}
	if err := g.AddEdge(a, a); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v, want ErrSelfLoop", err)
	}
	if err := g.AddEdge(a, 99); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out of range error = %v, want ErrNodeOutOfRange", err)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	c := g.AddNode("c", 0, 0)
	for _, e := range [][2]NodeID{{a, c}, {a, b}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Neighbors(a)
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Neighbors(a) = %v, want sorted [b c]", got)
	}
	if g.Degree(a) != 2 || g.Degree(b) != 1 {
		t.Fatalf("degrees: a=%d b=%d", g.Degree(a), g.Degree(b))
	}
	if g.Degree(-1) != 0 || g.Neighbors(99) != nil {
		t.Fatal("invalid IDs must yield zero degree / nil neighbors")
	}
	// The returned slice must be a copy.
	got[0] = 42
	if g.Neighbors(a)[0] == 42 {
		t.Fatal("Neighbors returned internal storage")
	}
}

func TestConnected(t *testing.T) {
	g := &Graph{}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	g.AddNode("c", 0, 0)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// New York -> Los Angeles is roughly 3936 km great-circle.
	d := HaversineKm(40.7128, -74.0060, 34.0522, -118.2437)
	if d < 3900 || d > 3975 {
		t.Fatalf("NYC-LA distance = %.1f km, want ~3936", d)
	}
	if HaversineKm(10, 20, 10, 20) != 0 {
		t.Fatal("identical coordinates must have zero distance")
	}
}

func TestHaversineProperties(t *testing.T) {
	symmetric := func(lat1, lon1, lat2, lon2 float64) bool {
		clamp := func(v, lo, hi float64) float64 {
			return math.Mod(math.Abs(v), hi-lo) + lo
		}
		la1, lo1 := clamp(lat1, -90, 90), clamp(lon1, -180, 180)
		la2, lo2 := clamp(lat2, -90, 90), clamp(lon2, -180, 180)
		d1 := HaversineKm(la1, lo1, la2, lo2)
		d2 := HaversineKm(la2, lo2, la1, lo1)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9 && d1 <= math.Pi*earthRadiusKm+1
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDelayUsesPropagationSpeed(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a", 40.7128, -74.0060)
	b := g.AddNode("b", 34.0522, -118.2437)
	d, err := g.DistanceKm(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := g.LinkDelayMs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms-d/200.0) > 1e-9 {
		t.Fatalf("delay %.3f ms does not match distance %.1f km / 200 km/ms", ms, d)
	}
}

func TestATTDataset(t *testing.T) {
	dep, err := ATT()
	if err != nil {
		t.Fatalf("ATT: %v", err)
	}
	g := dep.Graph
	if g.NumNodes() != 25 {
		t.Fatalf("nodes = %d, want 25", g.NumNodes())
	}
	if g.NumDirectedLinks() != 112 {
		t.Fatalf("directed links = %d, want 112 (56 undirected)", g.NumDirectedLinks())
	}
	if err := dep.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(dep.Controllers) != 6 {
		t.Fatalf("controllers = %d, want 6", len(dep.Controllers))
	}
	sizes := map[int]int{}
	for _, c := range dep.Controllers {
		if c.Capacity != DefaultControllerCapacity {
			t.Fatalf("capacity = %d, want %d", c.Capacity, DefaultControllerCapacity)
		}
		sizes[len(c.Domain)]++
	}
	// Table III domain-size profile: {4, 4, 4, 5, 2, 6}.
	if sizes[4] != 3 || sizes[5] != 1 || sizes[2] != 1 || sizes[6] != 1 {
		t.Fatalf("domain size profile = %v, want 3×4, 1×5, 1×2, 1×6", sizes)
	}
}

// TestATTControllerOf checks that every ATT switch has exactly one
// controller: the domains partition the switch set.
func TestATTControllerOf(t *testing.T) {
	dep, err := ATT()
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, dep.Graph.NumNodes())
	for _, c := range dep.Controllers {
		for _, sw := range c.Domain {
			owners[sw]++
		}
	}
	for sw, n := range owners {
		if n != 1 {
			t.Fatalf("switch %d is in %d domains, want 1", sw, n)
		}
	}
}

func TestDeploymentValidateCatchesOverlap(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 1, 1)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	d := &Deployment{
		Graph: g,
		Controllers: []Controller{
			{Site: a, Domain: []NodeID{a, b}, Capacity: 10},
			{Site: b, Domain: []NodeID{b}, Capacity: 10},
		},
	}
	if err := d.Validate(); err == nil {
		t.Fatal("overlapping domains must fail validation")
	}
}

func TestDeploymentValidateCatchesUncovered(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 1, 1)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	d := &Deployment{
		Graph:       g,
		Controllers: []Controller{{Site: a, Domain: []NodeID{a}, Capacity: 10}},
	}
	if err := d.Validate(); err == nil {
		t.Fatal("uncovered switches must fail validation")
	}
}

func TestEdgeDelaysMsSymmetric(t *testing.T) {
	dep, err := ATT()
	if err != nil {
		t.Fatal(err)
	}
	w, err := dep.Graph.EdgeDelaysMs()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dep.Graph.Edges() {
		if w(e.A, e.B) != w(e.B, e.A) {
			t.Fatalf("delay asymmetric on edge %v", e)
		}
		if w(e.A, e.B) <= 0 {
			t.Fatalf("non-positive delay on edge %v", e)
		}
	}
}
