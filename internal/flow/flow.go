// Package flow generates the traffic workload of the paper's evaluation:
// one flow per pair of nodes, forwarded on a shortest path, together with the
// path-programmability coefficients (β_i^l, p_i^l, p̄_i^l) that drive the
// FMSSM optimization.
//
// The workload is two arenas in CSR (compressed sparse row) form: all paths
// back to back in one flat node array, and a switch→flows index that inverts
// the paths once at generation time, keeping p̄_i^l beside each flow. Per-flow
// Path slices are views into the path arena, so the familiar Flow API costs
// no per-flow allocations, and per-case consumers (scenario compilation, the
// daemon's reconcile path) read a failed domain's (switch, flow, p̄)
// incidences off the index alone, without touching a flow.
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

// Flow is a unidirectional traffic flow and its forwarding path. Path is a
// view into the Set's flat path arena; callers must not mutate it.
type Flow struct {
	ID       ID
	Src, Dst topo.NodeID
	Path     []topo.NodeID
}

// Options tunes workload generation; a zero field takes its default.
//
// p_i^l counts the simple paths from i to the destination at most one hop
// longer than the shortest, the paths enumerated in the paper's Fig. 1
// example.
type Options struct {
	// Limit caps each p_i^l (0 = default 12). Counting is exact below the
	// cap; the cap prevents exponential blow-up on dense graphs.
	Limit int
}

const defaultLimit = 12

func (o Options) withDefaults() Options {
	if o.Limit == 0 {
		o.Limit = defaultLimit
	}
	return o
}

// Set is a generated workload: two arenas, built once by Generate.
//
// pathArc holds every flow's path back to back; the exported Flows slice
// holds views into it. swOff/through is the transposed switch→flows index:
// for each switch i, the flows whose path includes i (ascending), with p̄
// beside each, at through[swOff[i]:swOff[i+1]]. γ_i is the length of that
// slice.
type Set struct {
	Flows []Flow
	opts  Options

	pathArc []topo.NodeID
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

// Generate routes one flow per ordered node pair on a hop-primary/
// delay-secondary shortest path and computes p̄ at every switch of every
// path.
func Generate(g *topo.Graph, opts Options) (*Set, error) {
	opts = opts.withDefaults()
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

	n := g.NumNodes()
	s := &Set{opts: opts}

	// BFS layers from every node. The graph is undirected, so a node's layers
	// drive both routing out of it and counting paths into it.
	layers := make([]graphalg.Layers, n)
	for v := range layers {
		layers[v] = graphalg.BFS(g, topo.NodeID(v))
	}
	// p_i^l depends only on the switch and the destination, so it is
	// memoized by destination column, memo[dst*n+at]: one walk-counting pass
	// a column.
	memo := make([]int, n*n)
	for dst := range layers {
		graphalg.CountWithinOneHop(g, layers[dst], opts.Limit, memo[dst*n:(dst+1)*n])
	}

	// Routing pass: append every pair's path to the arena, carve its view and
	// count its traversals into swOff[v+1]. Routing is hop-primary, so a flow
	// takes its hop distance plus one nodes: the arena is sized exactly, and
	// the traversal count checked against the index's int32 offsets, before a
	// path exists — an append never moves a view already carved.
	traversals := -n
	for _, l := range layers {
		for _, h := range l.Hops {
			traversals += h + 1
		}
	}
	if err := fitsInt32("traversal count", traversals); err != nil {
		return nil, err
	}
	s.pathArc = make([]topo.NodeID, 0, traversals)
	s.Flows = make([]Flow, 0, n*(n-1))
	s.swOff = make([]int32, n+1)
	for src := 0; src < n; src++ {
		tree := graphalg.HopMajorTree(g, layers[src], delay)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			lo := len(s.pathArc)
			s.pathArc, err = tree.AppendPathTo(s.pathArc, topo.NodeID(dst))
			if err != nil {
				return nil, fmt.Errorf("flow: route %d->%d: %w", src, dst, err)
			}
			path := s.pathArc[lo:len(s.pathArc):len(s.pathArc)]
			for _, v := range path {
				s.swOff[v+1]++
			}
			s.Flows = append(s.Flows, Flow{ID: ID(len(s.Flows)), Src: topo.NodeID(src), Dst: topo.NodeID(dst), Path: path})
		}
	}

	// Transpose: a counting sort of the traversals into the switch→flows
	// index, with p̄ = p_i^l where it is at least 2. The destination counts no
	// path to itself, so its entry carries 0.
	for i := 0; i < n; i++ {
		s.swOff[i+1] += s.swOff[i]
	}
	s.through = make([]Through, len(s.pathArc))
	cursor := make([]int32, n)
	copy(cursor, s.swOff[:n])
	for l := range s.Flows {
		f := &s.Flows[l]
		for _, v := range f.Path {
			e := Through{Flow: int32(l)}
			if c := memo[int(f.Dst)*n+int(v)]; c >= 2 {
				e.PBar = int32(c)
			}
			s.through[cursor[v]] = e
			cursor[v]++
		}
	}
	return s, nil
}

// Len returns the number of flows.
func (s *Set) Len() int { return len(s.Flows) }

// Options returns the (defaulted) options the set was generated with.
func (s *Set) Options() Options { return s.opts }

// SwitchFlowCount returns γ_i, the number of flows traversing switch i
// (including as source or destination), or 0 for out-of-range IDs.
func (s *Set) SwitchFlowCount(i topo.NodeID) int { return len(s.Through(i)) }

// TotalTraversals returns Σ_i γ_i, the summed per-switch flow counts
// (each flow contributes its path length in nodes).
func (s *Set) TotalTraversals() int { return len(s.through) }

// Through returns switch i's slice of the switch→flows index: one entry per
// flow whose path includes i, in ascending flow order. The slice is a view
// into the index and must not be mutated; out-of-range switches have none.
func (s *Set) Through(i topo.NodeID) []Through {
	if i < 0 || int(i) >= len(s.swOff)-1 {
		return nil
	}
	return s.through[s.swOff[i]:s.swOff[i+1]]
}
