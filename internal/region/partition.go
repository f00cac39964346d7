// Package region implements hierarchical, sharded planning for carrier-scale
// WANs: a deterministic partitioner that shards a deployment into K regions,
// per-region FMSSM/PM solves against region-local controller capacity, a
// top-level coordinator that only moves spare capacity and border-switch
// assignments across regions, and an optional anytime improver. The flat
// solvers walk every (switch, controller, flow-class) triple per case;
// sharding bounds each solve's working set to one region — its switches, its
// flows, and its m/K controllers — makes the region solves independent (the
// worker pool runs them concurrently, byte-identically for any worker
// count), and keeps cross-region reasoning to the border (see DESIGN.md §15
// for the measured costs and the quality-gap bound).
package region

import (
	"fmt"

	"pmedic/internal/topo"
)

// Partition shards a deployment into K regions at controller-domain
// granularity: a region is a set of controller domains, so every WAN node
// belongs to exactly one region and — crucially — a failed controller's
// offline switches always fall in exactly one region, which is what lets a
// failure case re-solve only the regions it touches.
type Partition struct {
	Dep *topo.Deployment
	// K is the region count, Seed the partitioner seed that produced the
	// layout. The same (deployment, K, seed) always yields the same
	// partition, byte for byte.
	K    int
	Seed uint64

	// ControllerRegion[j] is the region of deployment controller j.
	ControllerRegion []int
	// NodeRegion[v] is the region of WAN node v (its controller's region).
	NodeRegion []int
	// Controllers[r] lists the controller indices of region r, ascending.
	Controllers [][]int
	// SwitchCount[r] is the number of WAN nodes in region r.
	SwitchCount []int
	// Border lists the nodes with at least one WAN edge into another region,
	// ascending. Border switches are the only ones the coordinator may hand
	// across regions.
	Border []topo.NodeID
	// Adjacent[r] lists the regions sharing at least one WAN edge with r,
	// ascending.
	Adjacent [][]int

	borderSet []bool
}

// refinePasses bounds the label-propagation refinement; each pass is a full
// deterministic sweep over the domains.
const refinePasses = 4

// splitmix64 is the partitioner's seed stream (same mixer as topo's synthetic
// generator; duplicated to keep the packages decoupled).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New partitions dep into k regions with a multilevel scheme, deterministic
// in (dep, k, seed):
//
//  1. Coarsen: collapse the WAN graph to its controller domains; coarse edge
//     weights count the WAN edges between two domains.
//  2. Seed: a splitmix64 draw picks the first seed domain, farthest-point
//     traversal (max min hop distance on the coarse graph, lowest index on
//     ties) the remaining k-1 — spread-out seeds keep regions compact.
//  3. Grow: BFS-growth balanced by switch count — the smallest region
//     repeatedly absorbs the unassigned domain with the heaviest edge weight
//     into it.
//  4. Refine: bounded label-propagation passes move boundary domains to the
//     region they share more WAN edges with, under a 1.25×-average balance
//     cap, never emptying a region.
func New(dep *topo.Deployment, k int, seed uint64) (*Partition, error) {
	m := len(dep.Controllers)
	n := dep.Graph.NumNodes()
	if k < 1 || k > m {
		return nil, fmt.Errorf("region: %d regions for %d controllers", k, m)
	}

	// Domain of every WAN node.
	domainOf := make([]int, n)
	for v := range domainOf {
		domainOf[v] = -1
	}
	for j, c := range dep.Controllers {
		for _, sw := range c.Domain {
			if int(sw) >= n || domainOf[sw] >= 0 {
				return nil, fmt.Errorf("region: controller domains do not partition the node set (node %d)", sw)
			}
			domainOf[sw] = j
		}
	}
	for v, j := range domainOf {
		if j < 0 {
			return nil, fmt.Errorf("region: node %d belongs to no controller domain", v)
		}
	}

	// Coarse graph over domains: weight = WAN edges between the two domains.
	weight := make([]int, m*m)
	coarseAdj := make([][]int, m)
	for _, e := range dep.Graph.Edges() {
		a, b := domainOf[e.A], domainOf[e.B]
		if a == b {
			continue
		}
		if weight[a*m+b] == 0 {
			coarseAdj[a] = append(coarseAdj[a], b)
			coarseAdj[b] = append(coarseAdj[b], a)
		}
		weight[a*m+b]++
		weight[b*m+a]++
	}

	regionOf := make([]int, m)
	for j := range regionOf {
		regionOf[j] = -1
	}
	domSize := make([]int, m)
	for j, c := range dep.Controllers {
		domSize[j] = len(c.Domain)
	}

	if k == 1 {
		for j := range regionOf {
			regionOf[j] = 0
		}
	} else {
		seeds := pickSeeds(m, k, seed, coarseAdj)
		switchCount := make([]int, k)
		assigned := 0
		for r, d := range seeds {
			regionOf[d] = r
			switchCount[r] += domSize[d]
			assigned++
		}
		growRegions(m, k, regionOf, switchCount, domSize, weight, &assigned)
		refine(m, k, n, regionOf, switchCount, domSize, weight)
	}

	return assemble(dep, k, seed, regionOf, domainOf)
}

// pickSeeds picks k seed domains: the first by a seeded draw, the rest by
// farthest-point traversal on coarse hop distance (ties toward lower index).
func pickSeeds(m, k int, seed uint64, coarseAdj [][]int) []int {
	s := seed
	seeds := []int{int(splitmix64(&s) % uint64(m))}
	const inf = int(^uint(0) >> 1)
	minDist := make([]int, m)
	for d := range minDist {
		minDist[d] = inf
	}
	relax := func(src int) {
		// BFS from src over the coarse adjacency, folding into minDist.
		dist := make([]int, m)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range coarseAdj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for d := 0; d < m; d++ {
			if dist[d] >= 0 && dist[d] < minDist[d] {
				minDist[d] = dist[d]
			} else if dist[d] < 0 {
				// Disconnected coarse components count as nearby so later
				// seeds still spread within the main component.
				minDist[d] = 0
			}
		}
	}
	relax(seeds[0])
	for len(seeds) < k {
		best, bestDist := -1, -1
		for d := 0; d < m; d++ {
			if minDist[d] == inf {
				continue
			}
			taken := false
			for _, sd := range seeds {
				if sd == d {
					taken = true
					break
				}
			}
			if !taken && minDist[d] > bestDist {
				best, bestDist = d, minDist[d]
			}
		}
		if best < 0 {
			// Fewer reachable domains than regions: fall back to the lowest
			// unseeded index.
			for d := 0; d < m; d++ {
				taken := false
				for _, sd := range seeds {
					if sd == d {
						taken = true
						break
					}
				}
				if !taken {
					best = d
					break
				}
			}
		}
		seeds = append(seeds, best)
		relax(best)
	}
	return seeds
}

// growRegions assigns every remaining domain: the smallest region (by switch
// count, lowest index on ties) absorbs its heaviest-connected unassigned
// domain; a region with no unassigned neighbor defers to the next smallest,
// and fully detached domains go to the smallest region outright.
func growRegions(m, k int, regionOf, switchCount, domSize []int, weight []int, assigned *int) {
	order := make([]int, k)
	for *assigned < m {
		for r := range order {
			order[r] = r
		}
		// Stable selection sort by (switchCount, index): k is small.
		for a := 1; a < k; a++ {
			for b := a; b > 0 && switchCount[order[b-1]] > switchCount[order[b]]; b-- {
				order[b-1], order[b] = order[b], order[b-1]
			}
		}
		placed := false
		for _, r := range order {
			bestDom, bestW := -1, 0
			for d := 0; d < m; d++ {
				if regionOf[d] >= 0 {
					continue
				}
				w := 0
				for d2 := 0; d2 < m; d2++ {
					if regionOf[d2] == r {
						w += weight[d*m+d2]
					}
				}
				if w > bestW {
					bestDom, bestW = d, w
				}
			}
			if bestDom >= 0 {
				regionOf[bestDom] = r
				switchCount[r] += domSize[bestDom]
				*assigned++
				placed = true
				break
			}
		}
		if !placed {
			// No region touches any unassigned domain (disconnected coarse
			// graph): give the lowest unassigned domain to the smallest region.
			for d := 0; d < m; d++ {
				if regionOf[d] < 0 {
					r := order[0]
					regionOf[d] = r
					switchCount[r] += domSize[d]
					*assigned++
					break
				}
			}
		}
	}
}

// refine runs bounded label-propagation passes: a domain moves to the region
// it shares strictly more WAN edges with, provided the move neither empties
// its region nor pushes the target past the balance cap.
func refine(m, k, n int, regionOf, switchCount, domSize []int, weight []int) {
	capSw := (5*n)/(4*k) + 1
	domCount := make([]int, k)
	for _, r := range regionOf {
		domCount[r]++
	}
	wt := make([]int, k)
	for pass := 0; pass < refinePasses; pass++ {
		movedAny := false
		for d := 0; d < m; d++ {
			cur := regionOf[d]
			if domCount[cur] <= 1 {
				continue
			}
			for r := range wt {
				wt[r] = 0
			}
			for d2 := 0; d2 < m; d2++ {
				if w := weight[d*m+d2]; w > 0 {
					wt[regionOf[d2]] += w
				}
			}
			best := cur
			for r := 0; r < k; r++ {
				if r == cur || wt[r] <= wt[best] {
					continue
				}
				if switchCount[r]+domSize[d] > capSw {
					continue
				}
				best = r
			}
			if best != cur {
				regionOf[d] = best
				domCount[cur]--
				domCount[best]++
				switchCount[cur] -= domSize[d]
				switchCount[best] += domSize[d]
				movedAny = true
			}
		}
		if !movedAny {
			break
		}
	}
}

// assemble derives the node-level view: per-node regions, border switches,
// and region adjacency.
func assemble(dep *topo.Deployment, k int, seed uint64, regionOf, domainOf []int) (*Partition, error) {
	n := dep.Graph.NumNodes()
	p := &Partition{
		Dep:              dep,
		K:                k,
		Seed:             seed,
		ControllerRegion: regionOf,
		NodeRegion:       make([]int, n),
		Controllers:      make([][]int, k),
		SwitchCount:      make([]int, k),
		Adjacent:         make([][]int, k),
		borderSet:        make([]bool, n),
	}
	for v := 0; v < n; v++ {
		r := regionOf[domainOf[v]]
		p.NodeRegion[v] = r
		p.SwitchCount[r]++
	}
	for j, r := range regionOf {
		p.Controllers[r] = append(p.Controllers[r], j)
	}
	adjSet := make([]bool, k*k)
	for _, e := range dep.Graph.Edges() {
		ra, rb := p.NodeRegion[e.A], p.NodeRegion[e.B]
		if ra == rb {
			continue
		}
		p.borderSet[e.A] = true
		p.borderSet[e.B] = true
		adjSet[ra*k+rb] = true
		adjSet[rb*k+ra] = true
	}
	for v := 0; v < n; v++ {
		if p.borderSet[v] {
			p.Border = append(p.Border, topo.NodeID(v))
		}
	}
	for ra := 0; ra < k; ra++ {
		for rb := 0; rb < k; rb++ {
			if adjSet[ra*k+rb] {
				p.Adjacent[ra] = append(p.Adjacent[ra], rb)
			}
		}
	}
	return p, nil
}

// IsBorder reports whether WAN node v has an edge into another region.
func (p *Partition) IsBorder(v topo.NodeID) bool {
	return p.borderSet[v]
}
