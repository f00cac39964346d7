package region

import (
	"reflect"
	"sync"
	"testing"

	"pmedic/internal/topo"
)

func clusteredDep(t *testing.T) *topo.Deployment {
	t.Helper()
	dep, err := topo.SyntheticWithOpts(120, 12, 600, topo.SyntheticOpts{Seed: 5, Regions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestPartitionDeterministic builds the same partition from many goroutines
// at once (the CI hierarchy job runs this under -race) and requires every
// build to be byte-identical: the partitioner must not depend on scheduling.
func TestPartitionDeterministic(t *testing.T) {
	dep := clusteredDep(t)
	const builders = 8
	parts := make([]*Partition, builders)
	var wg sync.WaitGroup
	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part, err := New(dep, 4, 7)
			if err != nil {
				t.Error(err)
				return
			}
			parts[g] = part
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < builders; g++ {
		requireSamePartition(t, parts[0], parts[g])
	}
}

func requireSamePartition(t *testing.T, a, b *Partition) {
	t.Helper()
	if a.K != b.K || a.Seed != b.Seed {
		t.Fatalf("K/Seed differ: %d/%d vs %d/%d", a.K, a.Seed, b.K, b.Seed)
	}
	if !reflect.DeepEqual(a.ControllerRegion, b.ControllerRegion) {
		t.Fatalf("ControllerRegion differs")
	}
	if !reflect.DeepEqual(a.NodeRegion, b.NodeRegion) {
		t.Fatalf("NodeRegion differs")
	}
	if !reflect.DeepEqual(a.Controllers, b.Controllers) {
		t.Fatalf("Controllers differ")
	}
	if !reflect.DeepEqual(a.SwitchCount, b.SwitchCount) {
		t.Fatalf("SwitchCount differs")
	}
	if !reflect.DeepEqual(a.Border, b.Border) {
		t.Fatalf("Border differs")
	}
	if !reflect.DeepEqual(a.Adjacent, b.Adjacent) {
		t.Fatalf("Adjacent differs")
	}
}

// TestPartitionInvariants checks the structural contract on a clustered
// synthetic WAN: every controller and node in exactly one region, regions
// nonempty and balanced, border/adjacency consistent with the cut edges.
func TestPartitionInvariants(t *testing.T) {
	dep := clusteredDep(t)
	const k = 4
	part, err := New(dep, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.Graph.NumNodes()
	if len(part.NodeRegion) != n || len(part.ControllerRegion) != len(dep.Controllers) {
		t.Fatalf("index sizes wrong")
	}
	seen := make([]bool, len(dep.Controllers))
	total := 0
	for r := 0; r < k; r++ {
		if len(part.Controllers[r]) == 0 {
			t.Fatalf("region %d has no controller", r)
		}
		for _, j := range part.Controllers[r] {
			if seen[j] {
				t.Fatalf("controller %d in two regions", j)
			}
			seen[j] = true
			if part.ControllerRegion[j] != r {
				t.Fatalf("controller %d: Controllers/ControllerRegion disagree", j)
			}
		}
		total += part.SwitchCount[r]
	}
	if total != n {
		t.Fatalf("SwitchCount sums to %d, want %d", total, n)
	}
	for j, c := range dep.Controllers {
		for _, sw := range c.Domain {
			if part.NodeRegion[sw] != part.ControllerRegion[j] {
				t.Fatalf("node %d not in its controller's region", sw)
			}
		}
	}
	// Balance: the refinement cap is 1.25x the average plus one domain, so 2x
	// the ideal share is a comfortable structural bound on this topology.
	for r := 0; r < k; r++ {
		if part.SwitchCount[r] > 2*n/k {
			t.Fatalf("region %d holds %d of %d switches", r, part.SwitchCount[r], n)
		}
	}
	// Border and adjacency must match the cut edges exactly.
	wantBorder := make([]bool, n)
	wantAdj := make([]bool, k*k)
	cut := 0
	for _, e := range dep.Graph.Edges() {
		ra, rb := part.NodeRegion[e.A], part.NodeRegion[e.B]
		if ra == rb {
			continue
		}
		cut++
		wantBorder[e.A], wantBorder[e.B] = true, true
		wantAdj[ra*k+rb], wantAdj[rb*k+ra] = true, true
	}
	if cut == 0 {
		t.Fatal("no cut edges at K=4: partition degenerate")
	}
	for v := 0; v < n; v++ {
		if part.IsBorder(topo.NodeID(v)) != wantBorder[v] {
			t.Fatalf("IsBorder(%d) = %v", v, !wantBorder[v])
		}
	}
	x := 0
	for v := 0; v < n; v++ {
		if wantBorder[v] {
			if x >= len(part.Border) || part.Border[x] != topo.NodeID(v) {
				t.Fatalf("Border list wrong at %d", v)
			}
			x++
		}
	}
	if x != len(part.Border) {
		t.Fatalf("Border has %d extra entries", len(part.Border)-x)
	}
	for ra := 0; ra < k; ra++ {
		for _, rb := range part.Adjacent[ra] {
			if !wantAdj[ra*k+rb] {
				t.Fatalf("Adjacent[%d] lists %d without a cut edge", ra, rb)
			}
			wantAdj[ra*k+rb] = false
		}
	}
	for i, w := range wantAdj {
		if w {
			t.Fatalf("Adjacent misses pair (%d,%d)", i/k, i%k)
		}
	}
}

// TestPartitionK1 pins the trivial partition: everything in region 0, no
// border, no adjacency.
func TestPartitionK1(t *testing.T) {
	dep := clusteredDep(t)
	part, err := New(dep, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range part.NodeRegion {
		if r != 0 {
			t.Fatal("K=1 node outside region 0")
		}
	}
	for _, r := range part.ControllerRegion {
		if r != 0 {
			t.Fatal("K=1 controller outside region 0")
		}
	}
	if len(part.Border) != 0 || len(part.Adjacent[0]) != 0 || cutEdges(part) != 0 {
		t.Fatalf("K=1 has border structure: %d border, %d cut", len(part.Border), cutEdges(part))
	}
}

func TestPartitionValidation(t *testing.T) {
	dep := clusteredDep(t)
	if _, err := New(dep, 0, 1); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := New(dep, len(dep.Controllers)+1, 1); err == nil {
		t.Fatal("want error for k > controllers")
	}
}

// cutEdges counts the WAN edges crossing region boundaries — the partition
// quality metric the refinement minimizes.
func cutEdges(p *Partition) int {
	cut := 0
	for _, e := range p.Dep.Graph.Edges() {
		if p.NodeRegion[e.A] != p.NodeRegion[e.B] {
			cut++
		}
	}
	return cut
}
