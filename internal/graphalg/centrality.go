package graphalg

import "pmedic/internal/topo"

// Betweenness computes unweighted betweenness centrality for every node with
// Brandes' algorithm: the number of shortest paths passing through each node,
// summed over all ordered source/target pairs and normalized by the pair
// count. It is the structural quantity behind the evaluation topology's
// "hub" — the switch whose failure-domain loss dominates programmability.
func Betweenness(g *topo.Graph) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	// Reusable per-source state.
	sigma := make([]float64, n) // shortest-path counts
	dist := make([]int, n)
	delta := make([]float64, n)
	order := make([]topo.NodeID, 0, n) // BFS finish order
	queue := make([]topo.NodeID, 0, n)
	preds := make([][]topo.NodeID, n)

	for s := 0; s < n; s++ {
		order = order[:0]
		queue = queue[:0]
		for v := 0; v < n; v++ {
			sigma[v] = 0
			dist[v] = -1
			delta[v] = 0
			preds[v] = preds[v][:0]
		}
		src := topo.NodeID(s)
		sigma[src] = 1
		dist[src] = 0
		queue = append(queue, src)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			g.ForEachNeighbor(v, func(w topo.NodeID) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			})
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				bc[w] += delta[w]
			}
		}
	}
	// Normalize by the number of ordered pairs excluding the node itself.
	norm := float64((n - 1) * (n - 2))
	if norm > 0 {
		for v := range bc {
			bc[v] /= norm
		}
	}
	return bc
}
