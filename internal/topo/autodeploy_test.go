package topo

import "testing"

func TestAutoDeployment(t *testing.T) {
	dep, err := ATT()
	if err != nil {
		t.Fatal(err)
	}
	auto, err := AutoDeployment(dep.Graph, 6, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := auto.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(auto.Controllers) != 6 {
		t.Fatalf("controllers = %d", len(auto.Controllers))
	}
	// Sites must be among the highest-degree nodes; the hub (13) certainly
	// qualifies.
	found := false
	for _, c := range auto.Controllers {
		if c.Site == 13 {
			found = true
		}
		// Every switch's site distance must be minimal over all sites —
		// spot-check that each domain member is no closer to another site.
		distSelf := bfsHops(dep.Graph, c.Site)
		for _, sw := range c.Domain {
			for _, o := range auto.Controllers {
				distOther := bfsHops(dep.Graph, o.Site)
				if distOther[sw] < distSelf[sw] {
					t.Fatalf("switch %d in domain of %d but closer to %d", sw, c.Site, o.Site)
				}
			}
		}
	}
	if !found {
		t.Fatal("hub 13 not chosen as a controller site")
	}
}

func TestAutoDeploymentValidation(t *testing.T) {
	dep, err := ATT()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AutoDeployment(dep.Graph, 0, 500); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := AutoDeployment(dep.Graph, 26, 500); err == nil {
		t.Fatal("m>n must fail")
	}
}
