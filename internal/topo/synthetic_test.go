package topo

import "testing"

func TestSyntheticDeterministic(t *testing.T) {
	a, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.Graph.Connected() {
		t.Fatal("synthetic graph not connected")
	}
	if a.Graph.NumNodes() != 100 {
		t.Fatalf("got %d nodes, want 100", a.Graph.NumNodes())
	}
	if len(a.Controllers) != 8 {
		t.Fatalf("got %d controllers, want 8", len(a.Controllers))
	}
}

func TestSyntheticSmall(t *testing.T) {
	dep, err := SyntheticWithOpts(20, 4, 100, SyntheticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := SyntheticWithOpts(1, 1, 10, SyntheticOpts{}); err == nil {
		t.Fatal("want error for n < 2")
	}
}

// TestSyntheticZeroOptsIdentical pins determinism: two builds with the zero
// SyntheticOpts agree byte for byte — same coordinates, same edges, same
// deployment.
func TestSyntheticZeroOptsIdentical(t *testing.T) {
	a, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDeployment(t, a, b)
}

// TestSyntheticSeeded checks that seeds diversify the layout while staying
// reproducible, and that a region hint yields a valid clustered deployment.
func TestSyntheticSeeded(t *testing.T) {
	base, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1b, err := SyntheticWithOpts(100, 8, 400, SyntheticOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDeployment(t, s1, s1b)
	n0, _ := base.Graph.Node(1)
	n1, _ := s1.Graph.Node(1)
	if n0.Lat == n1.Lat && n0.Lon == n1.Lon {
		t.Fatal("seed 1 did not perturb coordinates")
	}

	for _, seed := range []uint64{0, 3, 9} {
		clustered, err := SyntheticWithOpts(120, 12, 600, SyntheticOpts{Seed: seed, Regions: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := clustered.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if clustered.Graph.NumNodes() != 120 || len(clustered.Controllers) != 12 {
			t.Fatalf("seed %d: got %d nodes / %d controllers", seed, clustered.Graph.NumNodes(), len(clustered.Controllers))
		}
		again, err := SyntheticWithOpts(120, 12, 600, SyntheticOpts{Seed: seed, Regions: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireSameDeployment(t, clustered, again)
	}

	if _, err := SyntheticWithOpts(20, 4, 100, SyntheticOpts{Regions: 11}); err == nil {
		t.Fatal("want error for more regions than n/2")
	}
}

func requireSameDeployment(t *testing.T, a, b *Deployment) {
	t.Helper()
	if a.Graph.NumNodes() != b.Graph.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.Graph.NumNodes(), b.Graph.NumNodes())
	}
	for v := 0; v < a.Graph.NumNodes(); v++ {
		na, _ := a.Graph.Node(NodeID(v))
		nb, _ := b.Graph.Node(NodeID(v))
		if na != nb {
			t.Fatalf("node %d differs: %+v vs %+v", v, na, nb)
		}
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for x := range ea {
		if ea[x] != eb[x] {
			t.Fatalf("edge %d differs: %v vs %v", x, ea[x], eb[x])
		}
	}
	if len(a.Controllers) != len(b.Controllers) {
		t.Fatalf("controller counts differ")
	}
	for j := range a.Controllers {
		ca, cb := a.Controllers[j], b.Controllers[j]
		if ca.Site != cb.Site || ca.Capacity != cb.Capacity || len(ca.Domain) != len(cb.Domain) {
			t.Fatalf("controller %d differs: %+v vs %+v", j, ca, cb)
		}
		for x := range ca.Domain {
			if ca.Domain[x] != cb.Domain[x] {
				t.Fatalf("controller %d domain differs", j)
			}
		}
	}
}
