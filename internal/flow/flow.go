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
	"runtime"

	"pmedic/internal/graphalg"
	"pmedic/internal/par"
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

// parallelMinNodes is the graph size from which the start-up passes that run
// once per node — Generate's, and scenario.NewContext's Dijkstras — go out on
// par.For over every core. Below it they run on the calling goroutine and
// start no goroutine: at ATT's 25 nodes a fan-out costs about what it saves,
// from 48 it starts to pay, at 500 it takes two fifths off on two cores
// (DESIGN §13.1 has the table). It is a variable only so that the test
// drawing that table can move it.
var parallelMinNodes = 48

// Workers returns the number of workers a once-per-node start-up pass over an
// n-node graph runs on: 1 (the calling goroutine) below parallelMinNodes,
// otherwise runtime.GOMAXPROCS. The pass's output never depends on it.
func Workers(n int) int {
	if n < parallelMinNodes {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Generate routes one flow per ordered node pair on a hop-primary/
// delay-secondary shortest path and computes p̄ at every switch of every
// path. Its per-node passes run on Workers(n) workers; the Set is the same
// byte for byte at every worker count.
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
	workers := Workers(n)
	s := &Set{opts: opts}

	// BFS layers from every node. The graph is undirected, so a node's layers
	// drive both routing out of it and counting paths into it. p_i^l depends
	// only on the switch and the destination, so it is memoized by
	// destination column, memo[dst*n+at]: one walk-counting pass a column.
	layers := make([]graphalg.Layers, n)
	memo := make([]int, n*n)
	par.For(n, workers, func(v int) {
		layers[v] = graphalg.BFS(g, topo.NodeID(v))
		graphalg.CountWithinOneHop(g, layers[v], opts.Limit, memo[v*n:(v+1)*n])
	})

	// Routing is hop-primary, so a flow takes its hop distance plus one
	// nodes: each source's stretch of the arena is known, and the traversal
	// count checked against the index's int32 offsets, before a path exists.
	// srcOff[src] is where src's paths start.
	srcOff := make([]int, n+1)
	for src, l := range layers {
		srcOff[src+1] = srcOff[src] - 1
		for _, h := range l.Hops {
			srcOff[src+1] += h + 1
		}
	}
	if err := fitsInt32("traversal count", srcOff[n]); err != nil {
		return nil, err
	}
	s.pathArc = make([]topo.NodeID, srcOff[n])
	s.Flows = make([]Flow, n*(n-1))
	s.swOff = make([]int32, n+1)

	// Routing pass, over contiguous blocks of sources: a block appends its
	// sources' paths to its own stretch of the arena, carves their views and
	// counts its traversals per switch. An append never moves a view already
	// carved, and the lowest block's error is the one a serial pass meets
	// first. Fanned out, it takes four blocks a worker, so that a block held
	// up on a busy core holds little up behind it.
	perWorker := 4
	if workers == 1 {
		perWorker = 1
	}
	blocks := make([]routeBlock, min(n, perWorker*workers))
	for b := range blocks {
		blocks[b] = routeBlock{lo: b * n / len(blocks), hi: (b + 1) * n / len(blocks)}
	}
	par.For(len(blocks), workers, func(b int) {
		blocks[b].route(g, layers, delay, s, srcOff)
	})
	for _, b := range blocks {
		if b.err != nil {
			return nil, b.err
		}
	}

	// Transpose: a counting sort of the traversals into the switch→flows
	// index, with p̄ = p_i^l where it is at least 2. The destination counts no
	// path to itself, so its entry carries 0. A prefix sum over (switch,
	// block) turns each block's counts into its own cursors, so the blocks
	// write the index in parallel and each switch's slice still lands flows
	// ascending.
	for v := 0; v < n; v++ {
		at := s.swOff[v]
		for _, b := range blocks {
			at, b.cursor[v] = at+b.cursor[v], at
		}
		s.swOff[v+1] = at
	}
	s.through = make([]Through, len(s.pathArc))
	par.For(len(blocks), workers, func(b int) {
		blocks[b].transpose(s, memo)
	})
	return s, nil
}

// routeBlock is one contiguous block of sources [lo, hi) of Generate's
// routing and transpose passes. cursor counts the block's traversals per
// switch, then holds where the block writes each switch's next index entry.
type routeBlock struct {
	lo, hi int
	cursor []int32
	err    error
}

// route writes the block's flows and their paths, and counts the block's
// traversals per switch into cursor.
func (b *routeBlock) route(g *topo.Graph, layers []graphalg.Layers, delay graphalg.Weight, s *Set, srcOff []int) {
	n := len(layers)
	b.cursor = make([]int32, n)
	arc := s.pathArc[srcOff[b.lo]:srcOff[b.lo]:srcOff[b.hi]]
	id := b.lo * (n - 1)
	var err error
	for src := b.lo; src < b.hi; src++ {
		tree := graphalg.HopMajorTree(g, layers[src], delay)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			lo := len(arc)
			arc, err = tree.AppendPathTo(arc, topo.NodeID(dst))
			if err != nil {
				b.err = fmt.Errorf("flow: route %d->%d: %w", src, dst, err)
				return
			}
			path := arc[lo:len(arc):len(arc)]
			for _, v := range path {
				b.cursor[v]++
			}
			s.Flows[id] = Flow{ID: ID(id), Src: topo.NodeID(src), Dst: topo.NodeID(dst), Path: path}
			id++
		}
	}
}

// transpose writes the block's flows' entries of the switch→flows index at
// the block's cursors.
func (b *routeBlock) transpose(s *Set, memo []int) {
	n := len(b.cursor)
	flows := s.Flows[b.lo*(n-1) : b.hi*(n-1)]
	for k := range flows {
		f := &flows[k]
		for _, v := range f.Path {
			e := Through{Flow: int32(f.ID)}
			if c := memo[int(f.Dst)*n+int(v)]; c >= 2 {
				e.PBar = int32(c)
			}
			s.through[b.cursor[v]] = e
			b.cursor[v]++
		}
	}
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
