package flow

import (
	"math"
	"reflect"
	"strings"
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

// TestSwitchIndexMatchesFlows is the oracle of the switch→flows index: every
// switch's entries equal the list rebuilt the slow way from the flows' paths
// and stops — flows ascending, p̄ beside each, 0 at the destination — and
// ForEachFlowThrough yields exactly γ_i flows.
func TestSwitchIndexMatchesFlows(t *testing.T) {
	syn, err := topo.SyntheticWithOpts(64, 6, 1, topo.SyntheticOpts{Seed: 3, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topo.Graph{"att": attGraph(t), "synthetic64": syn.Graph}
	for name, g := range graphs {
		for _, opts := range []Options{{}, {Unordered: true}, {Limit: 300}} {
			s, err := Generate(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.pathArc) != cap(s.pathArc) {
				t.Fatalf("%s %+v: %d traversals, %d predicted from hop distances", name, opts, len(s.pathArc), cap(s.pathArc))
			}
			want := make([][]Through, g.NumNodes())
			programmable := 0
			for l, f := range s.Flows {
				for k, v := range f.Path {
					e := Through{Flow: int32(l)}
					if k < len(f.Stops) && f.Stops[k].Programmable() {
						e.PBar = int32(f.Stops[k].PBar())
						programmable++
					}
					want[v] = append(want[v], e)
				}
			}
			for v := range want {
				sw := topo.NodeID(v)
				if got := s.Through(sw); !reflect.DeepEqual(got, want[v]) {
					t.Fatalf("%s %+v: switch %d index = %v, want %v", name, opts, v, got, want[v])
				}
				yielded := 0
				s.ForEachFlowThrough(sw, func(l ID) {
					if int32(l) != want[v][yielded].Flow {
						t.Fatalf("%s %+v: switch %d yields flow %d at %d, want %d", name, opts, v, l, yielded, want[v][yielded].Flow)
					}
					yielded++
				})
				if yielded != s.SwitchFlowCount(sw) {
					t.Fatalf("%s %+v: switch %d yields %d flows, γ = %d", name, opts, v, yielded, s.SwitchFlowCount(sw))
				}
			}
			if programmable == 0 {
				t.Fatalf("%s %+v: no programmable stop in the fixture", name, opts)
			}
			if s.Through(-1) != nil || s.Through(topo.NodeID(g.NumNodes())) != nil {
				t.Fatalf("%s %+v: out-of-range switches must have no entries", name, opts)
			}
		}
	}
}

// TestGenerateBounds pins the checks in front of the index's int32 fields:
// a negative or oversized Limit is refused, and the traversal bound names
// the count it refuses.
func TestGenerateBounds(t *testing.T) {
	g := attGraph(t)
	if _, err := Generate(g, Options{Limit: -1}); err == nil {
		t.Fatal("negative limit must be rejected")
	}
	if one := 1; math.MaxInt > math.MaxInt32 { // int is 64 bits wide
		big := math.MaxInt32 + one
		if _, err := Generate(g, Options{Limit: big}); err == nil {
			t.Fatal("a limit beyond int32 must be rejected")
		}
		err := fitsInt32("traversal count", big)
		if err == nil || !strings.Contains(err.Error(), "traversal count 2147483648") {
			t.Fatalf("fitsInt32(2^31) = %v, want an error naming the count", err)
		}
	}
	if err := fitsInt32("traversal count", math.MaxInt32); err != nil {
		t.Fatalf("fitsInt32(2^31-1) = %v, want nil", err)
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
