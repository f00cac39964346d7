package topo

import (
	"fmt"
	"sort"
)

// AutoDeployment derives a plausible controller deployment for an arbitrary
// topology (SyntheticWithOpts places its controllers with it): the m
// highest-degree nodes become controller sites and every switch joins
// the domain of its nearest site (by hop count, ties toward the lower site
// index), each controller getting the given capacity.
func AutoDeployment(g *Graph, m, capacity int) (*Deployment, error) {
	n := g.NumNodes()
	if m <= 0 || m > n {
		return nil, fmt.Errorf("topo: auto deployment: %d controllers for %d nodes", m, n)
	}
	// Pick sites: highest degree, ties toward lower IDs.
	order := make([]NodeID, n)
	for v := range order {
		order[v] = NodeID(v)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	sites := make([]NodeID, m)
	copy(sites, order[:m])
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	// BFS from every site simultaneously-ish: assign to nearest site.
	const inf = int(^uint(0) >> 1)
	best := make([]int, n)
	owner := make([]int, n)
	for v := range best {
		best[v], owner[v] = inf, -1
	}
	for si, site := range sites {
		dist := bfsHops(g, site)
		for v := 0; v < n; v++ {
			if dist[v] >= 0 && (dist[v] < best[v] || (dist[v] == best[v] && owner[v] > si)) {
				best[v], owner[v] = dist[v], si
			}
		}
	}
	d := &Deployment{Graph: g}
	for si, site := range sites {
		c := Controller{Site: site, Capacity: capacity}
		for v := 0; v < n; v++ {
			if owner[v] == si {
				c.Domain = append(c.Domain, NodeID(v))
			}
		}
		if len(c.Domain) == 0 {
			// Unreachable in a connected graph, but keep the invariant.
			c.Domain = []NodeID{site}
		}
		d.Controllers = append(d.Controllers, c)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("topo: auto deployment: %w", err)
	}
	return d, nil
}

// bfsHops returns hop distances from src (-1 unreachable).
func bfsHops(g *Graph, src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
