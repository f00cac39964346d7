package flow

import (
	"reflect"
	"testing"

	"pmedic/internal/topo"
)

func attGraph(t *testing.T) *topo.Graph {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	return dep.Graph
}

func TestGenerateOrderedCount(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One flow per ordered pair of 25 nodes.
	if s.Len() != 25*24 {
		t.Fatalf("flows = %d, want 600", s.Len())
	}
}

func TestGenerateUnorderedCount(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 25*24/2 {
		t.Fatalf("flows = %d, want 300", s.Len())
	}
}

func TestGeneratePathsAreValidWalks(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Flows {
		if f.Path[0] != f.Src || f.Path[len(f.Path)-1] != f.Dst {
			t.Fatalf("flow %d endpoints: path %v, src %d dst %d", f.ID, f.Path, f.Src, f.Dst)
		}
		for i := 1; i < len(f.Path); i++ {
			if !g.HasEdge(f.Path[i-1], f.Path[i]) {
				t.Fatalf("flow %d uses non-edge %d-%d", f.ID, f.Path[i-1], f.Path[i])
			}
		}
		seen := map[topo.NodeID]bool{}
		for _, v := range f.Path {
			if seen[v] {
				t.Fatalf("flow %d path revisits %d", f.ID, v)
			}
			seen[v] = true
		}
	}
}

func TestGenerateStopsExcludeDestination(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Flows {
		if len(f.Stops) != len(f.Path)-1 {
			t.Fatalf("flow %d: %d stops for %d path nodes", f.ID, len(f.Stops), len(f.Path))
		}
		for _, st := range f.Stops {
			if st.Node == f.Dst {
				t.Fatalf("flow %d has a stop at its destination", f.ID)
			}
		}
	}
}

func TestSwitchFlowCountsConsistent(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	manual := make([]int, g.NumNodes())
	for _, f := range s.Flows {
		for _, v := range f.Path {
			manual[v]++
		}
	}
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		got := s.SwitchFlowCount(topo.NodeID(v))
		if got != manual[v] {
			t.Fatalf("γ_%d = %d, manual %d", v, got, manual[v])
		}
		total += got
	}
	if s.TotalTraversals() != total {
		t.Fatalf("TotalTraversals = %d, manual %d", s.TotalTraversals(), total)
	}
	if s.SwitchFlowCount(-1) != 0 || s.SwitchFlowCount(999) != 0 {
		t.Fatal("out-of-range IDs must count 0")
	}
}

func TestEndpointFloor(t *testing.T) {
	// With ordered all-pairs flows, every node is an endpoint of 2*(n-1).
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if got := s.SwitchFlowCount(topo.NodeID(v)); got < 48 {
			t.Fatalf("γ_%d = %d < endpoint floor 48", v, got)
		}
	}
}

func TestStopSemantics(t *testing.T) {
	if (Stop{PathCount: 1}).Programmable() {
		t.Fatal("one path is not programmable")
	}
	if !(Stop{PathCount: 2}).Programmable() {
		t.Fatal("two paths are programmable")
	}
	if (Stop{PathCount: 1}).PBar() != 0 {
		t.Fatal("p̄ must be 0 when β=0")
	}
	if (Stop{PathCount: 5}).PBar() != 5 {
		t.Fatal("p̄ must equal the path count when β=1")
	}
}

func TestPathCountRespectsLimit(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Flows {
		for _, st := range f.Stops {
			if st.PathCount > 3 {
				t.Fatalf("path count %d exceeds limit 3", st.PathCount)
			}
		}
	}
}

func TestSlackIncreasesCounts(t *testing.T) {
	g := attGraph(t)
	s0, err := Generate(g, Options{Slack: 1, Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(g, Options{Slack: 2, Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for l := range s0.Flows {
		for i := range s0.Flows[l].Stops {
			a := s0.Flows[l].Stops[i].PathCount
			b := s2.Flows[l].Stops[i].PathCount
			if b < a {
				t.Fatalf("flow %d stop %d: slack 2 count %d < slack 1 count %d", l, i, b, a)
			}
			if b > a {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("extra slack should strictly increase at least one count")
	}
}

func TestNegativeSlackRejected(t *testing.T) {
	g := attGraph(t)
	if _, err := Generate(g, Options{Slack: -1}); err == nil {
		t.Fatal("negative slack must be rejected")
	}
}

func TestFlowsThrough(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	ids := s.FlowsThrough(nil, &seen, []topo.NodeID{13})
	if len(ids) != s.SwitchFlowCount(13) {
		t.Fatalf("FlowsThrough(13) = %d flows, γ_13 = %d", len(ids), s.SwitchFlowCount(13))
	}
	for _, id := range ids {
		if !s.Flows[id].Traverses(13) {
			t.Fatalf("flow %d reported through 13 but does not traverse it", id)
		}
	}
	if got := s.FlowsThrough(nil, &seen, nil); got != nil {
		t.Fatalf("FlowsThrough(nil) = %v, want nil", got)
	}

	// Several switches, one of them out of range: flows crossing more than
	// one are reported once, ascending, after whatever buf already held, and
	// the scratch set comes back all zero.
	switches := []topo.NodeID{13, 2, 7, topo.NodeID(g.NumNodes())}
	var want []int32
	for l := range s.Flows {
		if s.Flows[l].Traverses(13) || s.Flows[l].Traverses(2) || s.Flows[l].Traverses(7) {
			want = append(want, int32(l))
		}
	}
	got := s.FlowsThrough([]int32{-1}, &seen, switches)
	if got[0] != -1 || !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("FlowsThrough(%v) = %v, want -1 then %v", switches, got, want)
	}
	traversals := 0
	for _, sw := range switches {
		s.ForEachFlowThrough(sw, func(ID) { traversals++ })
	}
	if traversals <= len(want) {
		t.Fatalf("fixture has no flow crossing two of %v: %d traversals, %d flows", switches, traversals, len(want))
	}
	for w, word := range seen {
		if word != 0 {
			t.Fatalf("scratch word %d = %#x after return, want 0", w, word)
		}
	}
}

func TestTraverses(t *testing.T) {
	f := Flow{Path: []topo.NodeID{1, 2, 3}}
	if !f.Traverses(2) || f.Traverses(9) {
		t.Fatal("Traverses misbehaves")
	}
}

func TestOptionsDefaults(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := s.Options()
	if opts.Slack != defaultSlack || opts.Limit != defaultLimit {
		t.Fatalf("defaults not applied: %+v", opts)
	}
}
