package flow

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pmedic/internal/graphalg"
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

// pBar is the tests' p̄ oracle, independent of Generate's memoized counting:
// graphalg.CountSimplePaths runs its own BFS on fresh scratch, so the two
// share only the definition — simple paths from v to dst at most one hop
// longer than the shortest, capped at the limit, and 0 below 2.
func pBar(g *topo.Graph, opts Options, v, dst topo.NodeID) int32 {
	maxHops := graphalg.BFS(g, dst).Hops[v] + 1
	if c := graphalg.CountSimplePaths(g, v, dst, maxHops, opts.Limit); c >= 2 {
		return int32(c)
	}
	return 0
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

// TestGenerateStopsExcludeDestination checks that a flow's destination is
// never a rerouting stop: its index entry carries p̄ 0.
func TestGenerateStopsExcludeDestination(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	destinations := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range s.Through(topo.NodeID(v)) {
			if s.Flows[e.Flow].Dst != topo.NodeID(v) {
				continue
			}
			destinations++
			if e.PBar != 0 {
				t.Fatalf("flow %d has p̄ %d at its destination %d", e.Flow, e.PBar, v)
			}
		}
	}
	if destinations != s.Len() {
		t.Fatalf("%d destination entries for %d flows", destinations, s.Len())
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

func TestPathCountRespectsLimit(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	capped := false
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range s.Through(topo.NodeID(v)) {
			if e.PBar > 3 {
				t.Fatalf("switch %d flow %d: p̄ %d exceeds limit 3", v, e.Flow, e.PBar)
			}
			capped = capped || e.PBar == 3
		}
	}
	if !capped {
		t.Fatal("limit 3 should bind somewhere on ATT")
	}
}

// TestSwitchIndexMatchesFlows is the oracle of the switch→flows index: every
// switch's entries equal the list rebuilt the slow way from the flows' paths
// — flows ascending, the oracle's p̄ beside each, 0 at the destination.
func TestSwitchIndexMatchesFlows(t *testing.T) {
	syn, err := topo.SyntheticWithOpts(64, 6, 1, topo.SyntheticOpts{Seed: 3, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topo.Graph{"att": attGraph(t), "synthetic64": syn.Graph}
	for name, g := range graphs {
		for _, opts := range []Options{{}, {Limit: 300}} {
			s, err := Generate(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, f := range s.Flows {
				if &f.Path[0] != &s.pathArc[off] {
					t.Fatalf("%s %+v: flow %d's path is not the arena at %d", name, opts, f.ID, off)
				}
				off += len(f.Path)
			}
			if off != len(s.pathArc) {
				t.Fatalf("%s %+v: %d traversals, %d predicted from hop distances", name, opts, off, len(s.pathArc))
			}
			want := make([][]Through, g.NumNodes())
			programmable := 0
			for l, f := range s.Flows {
				for k, v := range f.Path {
					e := Through{Flow: int32(l)}
					if k < len(f.Path)-1 {
						e.PBar = pBar(g, s.Options(), v, f.Dst)
					}
					if e.PBar > 0 {
						programmable++
					}
					want[v] = append(want[v], e)
				}
			}
			for v := range want {
				if got := s.Through(topo.NodeID(v)); !reflect.DeepEqual(got, want[v]) {
					t.Fatalf("%s %+v: switch %d index = %v, want %v", name, opts, v, got, want[v])
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

// TestSwitchIndexPinned pins the bytes of the path arena and the switch index
// — an FNV-64a over swOff, through and pathArc, little-endian int32s — for
// three workloads, at GOMAXPROCS 1, 2 and 8. The digests were taken from the
// serial generator that still kept a per-stop arena beside the index, so a
// change of storage that moves a path, an offset or a p̄ fails here even
// where the oracle would agree. The 300-node synthetic lies above
// parallelMinNodes, so above one proc it pins the fanned-out passes too.
func TestSwitchIndexPinned(t *testing.T) {
	digest := func(s *Set) uint64 {
		h := fnv.New64a()
		var buf [4]byte
		put := func(v int32) {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
		for _, o := range s.swOff {
			put(o)
		}
		for _, e := range s.through {
			put(e.Flow)
			put(e.PBar)
		}
		for _, v := range s.pathArc {
			put(int32(v))
		}
		return h.Sum64()
	}
	syn, err := topo.SyntheticWithOpts(300, 8, 500, topo.SyntheticOpts{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Graph.NumNodes() < parallelMinNodes {
		t.Fatalf("the synthetic's %d nodes lie below parallelMinNodes %d", syn.Graph.NumNodes(), parallelMinNodes)
	}
	att := attGraph(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		g    *topo.Graph
		opts Options
		want uint64
	}{
		{"att", att, Options{}, 0xa3a91258cc2e1bc5},
		{"att limit 300", att, Options{Limit: 300}, 0x239ae741e9d9790f},
		{"synthetic300 seed 7", syn.Graph, Options{}, 0xf7a7989ec1325723},
	} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			s, err := Generate(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(s); got != c.want {
				t.Errorf("%s, GOMAXPROCS %d: index digest %#016x, want %#016x", c.name, procs, got, c.want)
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

func TestOptionsDefaults(t *testing.T) {
	g := attGraph(t)
	s, err := Generate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := s.Options()
	if opts.Limit != defaultLimit {
		t.Fatalf("defaults not applied: %+v", opts)
	}
}
