// Package flow generates the traffic workload of the paper's evaluation:
// one flow per pair of nodes, forwarded on a shortest path, together with the
// path-programmability coefficients (β_i^l, p_i^l, p̄_i^l) that drive the
// FMSSM optimization.
//
// The workload is stored in CSR (compressed sparse row) form: all paths live
// in one flat node array indexed by per-flow offsets, all stops in one flat
// Stop array sharing those offsets, and a switch→flows index inverts the
// paths once at generation time, keeping p̄_i^l beside each flow. Per-flow
// Path/Stops slices are views into the flat arrays, so the familiar Flow API
// costs no per-flow allocations, and per-case consumers (scenario
// compilation, the daemon's reconcile path) read a failed domain's
// (switch, flow, p̄) incidences off the index alone, without touching a flow.
package flow

import (
	"fmt"
	"math"

	"pmedic/internal/graphalg"
	"pmedic/internal/topo"
)

// ID identifies a flow within a Set; IDs are dense 0..L-1 in deterministic
// (src, dst) lexicographic order.
type ID int

// Stop is one switch on a flow's forwarding path together with the flow's
// path-count coefficient there: PathCount is p_i^l, the number of distinct
// simple paths from the switch to the flow's destination within the counting
// bound. The switch can reroute the flow (β_i^l = 1) iff PathCount >= 2.
type Stop struct {
	Node      topo.NodeID
	PathCount int
}

// Programmable reports β_i^l for this stop.
func (s Stop) Programmable() bool { return s.PathCount >= 2 }

// PBar returns p̄_i^l = β_i^l * p_i^l.
func (s Stop) PBar() int {
	if s.PathCount >= 2 {
		return s.PathCount
	}
	return 0
}

// Flow is a unidirectional traffic flow with its forwarding path and the
// programmability coefficients at every path switch except the destination
// (the destination cannot reroute the flow). Path and Stops are views into
// the Set's flat CSR arrays; callers must not mutate them.
type Flow struct {
	ID       ID
	Src, Dst topo.NodeID
	Path     []topo.NodeID
	Stops    []Stop
}

// Traverses reports whether the flow's path includes node v.
func (f *Flow) Traverses(v topo.NodeID) bool {
	for _, n := range f.Path {
		if n == v {
			return true
		}
	}
	return false
}

// Options tunes workload generation. The zero value is replaced by Defaults.
type Options struct {
	// Unordered generates one flow per unordered node pair instead of the
	// default one per ordered pair. The paper's Table III flow-count
	// arithmetic is consistent with ordered pairs (600 flows on 25 nodes).
	Unordered bool
	// Slack bounds path counting: p_i^l counts simple paths from i to the
	// destination no longer than (hop distance + Slack). Default 1, which
	// matches the paths enumerated in the paper's Fig. 1 example.
	Slack int
	// Limit caps each p_i^l (0 = default 12). Counting is exact below the
	// cap; the cap prevents exponential blow-up on dense graphs.
	Limit int
}

const (
	defaultSlack = 1
	defaultLimit = 12
)

func (o Options) withDefaults() Options {
	if o.Slack == 0 {
		o.Slack = defaultSlack
	}
	if o.Limit == 0 {
		o.Limit = defaultLimit
	}
	return o
}

// Set is a generated workload: all flows plus per-switch traversal counts.
//
// Storage is CSR: pathArc holds every flow's path back to back, stopArc the
// matching stops, and swOff/through the transposed switch→flows index. All
// arrays are built once by Generate; the exported Flows slice holds views
// into them.
type Set struct {
	Flows []Flow
	// counts[i] is γ_i: the number of flows whose path includes switch i.
	counts []int
	opts   Options

	// pathArc/stopArc are the flat backing arrays of every Flow's Path and
	// Stops views.
	pathArc []topo.NodeID
	stopArc []Stop
	// swOff/through list, for each switch i, the flows whose path includes i
	// (ascending): through[swOff[i]:swOff[i+1]].
	swOff   []int32
	through []Through
}

// Through is one entry of the switch→flows index: flow Flow's path includes
// the switch, where the flow has PBar = p̄_i^l — 0 when the switch is the
// flow's destination or cannot reroute it (β_i^l = 0), otherwise >= 2.
type Through struct {
	Flow int32
	PBar int32
}

// fitsInt32 is the bound check behind the switch index's int32 fields.
func fitsInt32(what string, v int) error {
	if v > math.MaxInt32 {
		return fmt.Errorf("flow: %s %d overflows the switch index's int32", what, v)
	}
	return nil
}

// Generate routes one flow per node pair on a hop-primary/delay-secondary
// shortest path and computes programmability coefficients for every stop.
func Generate(g *topo.Graph, opts Options) (*Set, error) {
	opts = opts.withDefaults()
	if opts.Slack < 0 {
		return nil, fmt.Errorf("flow: negative slack %d", opts.Slack)
	}
	if opts.Limit < 0 {
		return nil, fmt.Errorf("flow: negative limit %d", opts.Limit)
	}
	// Every p_i^l is at most Limit, so this bounds Through.PBar.
	if err := fitsInt32("path-count limit", opts.Limit); err != nil {
		return nil, err
	}
	delay, err := g.EdgeDelaysMs()
	if err != nil {
		return nil, fmt.Errorf("flow: edge delays: %w", err)
	}
	routeWeight := graphalg.HopMajor(delay)

	n := g.NumNodes()
	s := &Set{counts: make([]int, n), opts: opts}

	// Hop distances from every destination, reused for both routing slack
	// bounds and path counting.
	hopsTo := make([][]int, n)
	for v := 0; v < n; v++ {
		hopsTo[v] = graphalg.HopDistances(g, topo.NodeID(v))
	}
	// Memoize path counts: (node, dst) pairs repeat across flows sharing a
	// destination. The memo is a dense at*n+dst table (-1 = unset): node IDs
	// are dense, so this replaces per-lookup map hashing with one index.
	countMemo := make([]int, n*n)
	for i := range countMemo {
		countMemo[i] = -1
	}
	countVisited := make([]bool, n)
	countPaths := func(at, dst topo.NodeID) int {
		key := int(at)*n + int(dst)
		if c := countMemo[key]; c >= 0 {
			return c
		}
		maxHops := hopsTo[dst][at] + opts.Slack
		c := graphalg.CountSimplePathsPruned(g, at, dst, maxHops, opts.Limit, hopsTo[dst], countVisited)
		countMemo[key] = c
		return c
	}

	// Pass 1: route every pair, appending paths into the flat arc array and
	// recording offsets. Routing is hop-primary, so a flow takes its hop
	// distance plus one nodes: the array is sized exactly, and the traversal
	// count checked against the index's int32 offsets, before a path exists.
	// Views are carved out afterwards.
	numFlows, traversals := n*(n-1), -n
	for _, hops := range hopsTo {
		for _, h := range hops {
			traversals += h + 1
		}
	}
	if opts.Unordered {
		numFlows, traversals = numFlows/2, traversals/2
	}
	if err := fitsInt32("traversal count", traversals); err != nil {
		return nil, err
	}
	pathOff := make([]int32, 1, numFlows+1)
	s.pathArc = make([]topo.NodeID, 0, traversals)
	type endpoints struct{ src, dst topo.NodeID }
	ends := make([]endpoints, 0, numFlows)
	for src := 0; src < n; src++ {
		tree, err := graphalg.Dijkstra(g, topo.NodeID(src), routeWeight)
		if err != nil {
			return nil, fmt.Errorf("flow: route from %d: %w", src, err)
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			if opts.Unordered && dst < src {
				continue
			}
			s.pathArc, err = tree.AppendPathTo(s.pathArc, topo.NodeID(dst))
			if err != nil {
				return nil, fmt.Errorf("flow: route %d->%d: %w", src, dst, err)
			}
			pathOff = append(pathOff, int32(len(s.pathArc)))
			ends = append(ends, endpoints{topo.NodeID(src), topo.NodeID(dst)})
		}
	}

	// Pass 2: programmability coefficients for every stop, flat.
	s.stopArc = make([]Stop, 0, len(s.pathArc)-len(ends))
	for l := range ends {
		path := s.pathArc[pathOff[l]:pathOff[l+1]]
		dst := ends[l].dst
		for _, v := range path[:len(path)-1] {
			s.stopArc = append(s.stopArc, Stop{Node: v, PathCount: countPaths(v, dst)})
		}
		for _, v := range path {
			s.counts[v]++
		}
	}

	// Pass 3: flow views into the now-stable backing arrays, and the
	// switch→flows CSR transpose (a counting sort over the traversal counts).
	s.Flows = make([]Flow, len(ends))
	stopOff := int32(0)
	for l := range ends {
		lo, hi := pathOff[l], pathOff[l+1]
		s.Flows[l] = Flow{
			ID:    ID(l),
			Src:   ends[l].src,
			Dst:   ends[l].dst,
			Path:  s.pathArc[lo:hi:hi],
			Stops: s.stopArc[stopOff : stopOff+(hi-lo)-1 : stopOff+(hi-lo)-1],
		}
		stopOff += hi - lo - 1
	}
	s.swOff = make([]int32, n+1)
	for i, c := range s.counts {
		s.swOff[i+1] = s.swOff[i] + int32(c)
	}
	s.through = make([]Through, len(s.pathArc))
	cursor := make([]int32, n)
	copy(cursor, s.swOff[:n])
	for l := range s.Flows {
		f := &s.Flows[l]
		for _, st := range f.Stops {
			s.through[cursor[st.Node]] = Through{Flow: int32(l), PBar: int32(st.PBar())}
			cursor[st.Node]++
		}
		s.through[cursor[f.Dst]] = Through{Flow: int32(l)}
		cursor[f.Dst]++
	}
	return s, nil
}

// Len returns the number of flows.
func (s *Set) Len() int { return len(s.Flows) }

// Options returns the (defaulted) options the set was generated with.
func (s *Set) Options() Options { return s.opts }

// SwitchFlowCount returns γ_i, the number of flows traversing switch i
// (including as source or destination), or 0 for out-of-range IDs.
func (s *Set) SwitchFlowCount(i topo.NodeID) int {
	if i < 0 || int(i) >= len(s.counts) {
		return 0
	}
	return s.counts[int(i)]
}

// TotalTraversals returns Σ_i γ_i, the summed per-switch flow counts
// (each flow contributes its path length in nodes).
func (s *Set) TotalTraversals() int {
	var total int
	for _, c := range s.counts {
		total += c
	}
	return total
}

// Through returns switch i's slice of the switch→flows index: one entry per
// flow whose path includes i, in ascending flow order. The slice is a view
// into the index and must not be mutated; out-of-range switches have none.
func (s *Set) Through(i topo.NodeID) []Through {
	if i < 0 || int(i) >= len(s.counts) {
		return nil
	}
	return s.through[s.swOff[i]:s.swOff[i+1]]
}

// ForEachFlowThrough calls fn with the ID of every flow whose path includes
// switch i, in ascending flow order.
func (s *Set) ForEachFlowThrough(i topo.NodeID, fn func(ID)) {
	for _, e := range s.Through(i) {
		fn(ID(e.Flow))
	}
}
