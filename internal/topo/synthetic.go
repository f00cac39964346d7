package topo

import "fmt"

// SyntheticOpts tunes SyntheticWithOpts. The zero value selects the plain
// grid layout, with no randomness involved.
type SyntheticOpts struct {
	// Seed perturbs node coordinates and chord targets through a splitmix64
	// stream, yielding diverse but reproducible graphs: the same (n, m,
	// capacity, opts) always builds the same deployment. Seed 0 draws nothing
	// from the stream and keeps the legacy deterministic layout.
	Seed uint64
	// Regions, when >= 2, arranges the nodes into that many dense clusters
	// joined by sparse deterministic bridges — the community structure a
	// region partitioner should recover — instead of one uniform grid.
	// Cluster c holds the contiguous index range [c·n/R, (c+1)·n/R).
	Regions int
}

// splitmix64 advances *x and returns the next value of the stream. It is the
// standard splitmix64 mixer: tiny, fast, and fully reproducible across
// platforms, which is all the synthetic generator needs.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SyntheticWithOpts builds a deterministic n-node deployment for scale tests
// and benchmarks: nodes on a ⌈√n⌉-wide geographic grid (so link delays vary
// but are reproducible), grid edges plus periodic chords to keep the diameter
// small, and m controllers placed by AutoDeployment with the given capacity.
// opts may perturb the layout or cluster it into regions; the same (n, m,
// capacity, opts) always yields the same deployment.
func SyntheticWithOpts(n, m, capacity int, opts SyntheticOpts) (*Deployment, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: synthetic: need at least 2 nodes, got %d", n)
	}
	if opts.Regions < 0 || opts.Regions > n/2 {
		return nil, fmt.Errorf("topo: synthetic: %d regions for %d nodes", opts.Regions, n)
	}
	g := &Graph{}
	var err error
	if opts.Regions >= 2 {
		err = buildClustered(g, n, opts.Regions, opts.Seed)
	} else {
		err = buildGrid(g, n, opts.Seed)
	}
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topo: synthetic: %w", err)
	}
	return AutoDeployment(g, m, capacity)
}

// addSynthEdge links a and b unless the edge is degenerate or already present.
func addSynthEdge(g *Graph, a, b, n int) error {
	if a == b || a < 0 || b < 0 || a >= n || b >= n {
		return nil
	}
	if g.HasEdge(NodeID(a), NodeID(b)) {
		return nil
	}
	return g.AddEdge(NodeID(a), NodeID(b))
}

// buildGrid is the single-grid layout. Seed 0 draws nothing from the stream;
// a non-zero seed jitters coordinates and varies the chord targets.
func buildGrid(g *Graph, n int, seed uint64) error {
	side := 1
	for side*side < n {
		side++
	}
	jitter := func() float64 {
		if seed == 0 {
			return 0
		}
		return (float64(splitmix64(&seed)>>11)/(1<<53) - 0.5) * 0.2
	}
	for i := 0; i < n; i++ {
		row, col := i/side, i%side
		lat := 30 + 0.8*float64(row) + 0.13*float64(col%3) + jitter()
		lon := -120 + 0.9*float64(col) + 0.11*float64(row%2) + jitter()
		g.AddNode(fmt.Sprintf("n%d", i), lat, lon)
	}
	for i := 0; i < n; i++ {
		row, col := i/side, i%side
		if col+1 < side {
			if err := addSynthEdge(g, i, i+1, n); err != nil {
				return err
			}
		}
		if row+1 < n/side+1 {
			if err := addSynthEdge(g, i, i+side, n); err != nil {
				return err
			}
		}
		// Periodic long chords shrink the diameter the way real WAN
		// backbones do.
		if i%5 == 0 {
			stride := 3*side + 1
			if seed != 0 {
				stride += int(splitmix64(&seed) % uint64(side))
			}
			if err := addSynthEdge(g, i, (i+stride)%n, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildClustered lays the nodes out as r dense sub-grids ("metro areas") on a
// coarse grid of cluster centers, with two deterministic bridges between ring-
// adjacent clusters and a few seeded long bridges — sparse enough that the
// cluster structure dominates any reasonable edge-cut objective.
func buildClustered(g *Graph, n, r int, seed uint64) error {
	cside := 1
	for cside*cside < r {
		cside++
	}
	jitter := func() float64 {
		if seed == 0 {
			return 0
		}
		return (float64(splitmix64(&seed)>>11)/(1<<53) - 0.5) * 0.2
	}
	// draw(k) is a deterministic pick in [0, k) that still consumes the
	// stream when seed is 0, so seed 0 is just one more reproducible layout.
	s := seed + 0x51ab_3c67
	draw := func(k int) int {
		return int(splitmix64(&s) % uint64(k))
	}
	clusterLo := func(c int) int { return c * n / r }

	for i := 0; i < n; i++ {
		c := i * r / n
		lo := clusterLo(c)
		sz := clusterLo(c+1) - lo
		side := 1
		for side*side < sz {
			side++
		}
		li := i - lo
		latC := 25 + 10*float64(c/cside)
		lonC := -120 + 12*float64(c%cside)
		lat := latC + 0.6*float64(li/side) + 0.11*float64(li%3) + jitter()
		lon := lonC + 0.7*float64(li%side) + 0.09*float64(li%2) + jitter()
		g.AddNode(fmt.Sprintf("n%d", i), lat, lon)
	}

	// Intra-cluster edges: local grid plus periodic chords within the cluster.
	for c := 0; c < r; c++ {
		lo, hi := clusterLo(c), clusterLo(c+1)
		sz := hi - lo
		side := 1
		for side*side < sz {
			side++
		}
		for li := 0; li < sz; li++ {
			i := lo + li
			if li%side+1 < side && li+1 < sz {
				if err := addSynthEdge(g, i, i+1, n); err != nil {
					return err
				}
			}
			if li+side < sz {
				if err := addSynthEdge(g, i, i+side, n); err != nil {
					return err
				}
			}
			if li%4 == 0 && sz > 2 {
				if err := addSynthEdge(g, i, lo+(li+2*side+1+draw(sz))%sz, n); err != nil {
					return err
				}
			}
		}
		// A tiny cluster (size 2) gets its single edge from the grid rules
		// only when side permits; force it so no node is isolated.
		if sz == 2 {
			if err := addSynthEdge(g, lo, lo+1, n); err != nil {
				return err
			}
		}
	}

	// Inter-cluster bridges: two per ring-adjacent pair keep the graph
	// connected; r/2 extra seeded bridges mimic the few long-haul links real
	// carrier backbones run between distant metros.
	bridge := func(ca, cb int) error {
		la, ha := clusterLo(ca), clusterLo(ca+1)
		lb, hb := clusterLo(cb), clusterLo(cb+1)
		return addSynthEdge(g, la+draw(ha-la), lb+draw(hb-lb), n)
	}
	for c := 0; c < r; c++ {
		next := (c + 1) % r
		if next == c {
			continue
		}
		for b := 0; b < 2; b++ {
			if err := bridge(c, next); err != nil {
				return err
			}
		}
	}
	for x := 0; x < r/2; x++ {
		ca, cb := draw(r), draw(r)
		if ca == cb {
			continue
		}
		if err := bridge(ca, cb); err != nil {
			return err
		}
	}
	return nil
}
